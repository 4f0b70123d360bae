"""Seeded generators for the worked examples.

Latent sources are unit-variance AR(2) oscillators (standardized by their
closed-form stationary standard deviation, so mixing weights stay comparable
across bandwidths).  :func:`example` builds the named scenario and returns
the observed series together with a ground-truth descriptor listing the
structure an analysis should recover.  Identical (name, T, seed, overrides)
reproduce output bit for bit.
"""

import numpy as np

from .core import ConfigError, MultiChannelSeries
from .spectrum import Ar2Params, ar2_from_peak, ar2_stationary_var
from .var import VarModel, simulate_var

__all__ = [
    "gen_sources",
    "mix",
    "example",
    "example_names",
    "pdc_net_model",
]

DEFAULT_FS = 128.0
DEFAULT_M = 1.05


def gen_sources(params_list, T, seed, sample_rate_hz=DEFAULT_FS):
    """Independent standardized latent sources, one channel each.

    AR(2) sources are divided by their closed-form stationary standard
    deviation so each has (population) unit variance; "white" entries are
    unit Gaussian noise.  Per-source RNG streams derive from ``seed``.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    streams = seed.spawn(len(params_list))
    cols = []
    labels = []
    for k, params in enumerate(params_list):
        if isinstance(params, str) and params == "white":
            rng = np.random.default_rng(streams[k])
            cols.append(rng.standard_normal(T))
        elif isinstance(params, Ar2Params):
            model = VarModel(np.array([[[params.phi1]], [[params.phi2]]]),
                             np.array([[params.noise_var]]))
            z = simulate_var(model, T, streams[k]).samples[:, 0]
            cols.append(z / np.sqrt(ar2_stationary_var(params)))
        else:
            raise ConfigError(f"source {k}: expected Ar2Params or 'white'")
        labels.append(f"Z{k + 1}")
    return MultiChannelSeries(np.column_stack(cols), sample_rate_hz, labels)


def mix(sources, mixing, lags, noise_std, seed):
    """A lagged linear mixture X_p(t) = sum_k C[p,k] Z_k(t - H[p,k]) + noise.

    ``mixing`` is the P x K matrix C over the K channels of ``sources``,
    ``lags`` the P x K non-negative integer lags H below T (None for all
    zero) and ``noise_std`` a scalar or length-P noise standard deviation.
    Lagged source values before the record start are zero-padded, so the
    first max(lags) samples are transient.
    """
    T = sources.n_samples
    mixing = np.asarray(mixing, dtype=float)
    if mixing.ndim != 2:
        raise ConfigError("mixing must be a P x K matrix")
    P, K = mixing.shape
    if sources.n_channels != K:
        raise ConfigError(f"mixing expects {K} sources, series has {sources.n_channels}")
    lags = np.zeros((P, K)) if lags is None else np.asarray(lags, dtype=float)
    whole = (lags >= 0) & (lags < T) & (lags == np.floor(lags))
    if lags.shape != (P, K) or not np.all(whole):
        raise ConfigError(f"lags must be a P x K matrix of non-negative ints below T={T}")
    lags = lags.astype(int)
    noise_std = np.broadcast_to(np.asarray(noise_std, dtype=float), (P,))
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
    return MultiChannelSeries(out, sources.sample_rate_hz)


def pdc_net_model(M=1.049787, fs=DEFAULT_FS, noise_cov=None):
    """The sparse four-channel VAR(2) network with band-specific self-loops.

    Channels 3 and 4 are autonomous delta and gamma oscillators; channel 2
    is driven by X3(t-1) and X4(t-2) with unit weights (no self term) and
    channel 1 is a beta oscillator also fed by X2(t-1) with weight 1/2.
    The default diagonal noise covariance scales each oscillator to unit
    stationary variance so the channels are comparable; near-unit-root
    oscillators otherwise dwarf the rest by orders of magnitude.
    """
    delta = ar2_from_peak(M, 2 / fs)
    beta = ar2_from_peak(M, 20 / fs)
    gamma = ar2_from_peak(M, 40 / fs)
    phi1 = np.zeros((4, 4))
    phi2 = np.zeros((4, 4))
    phi1[0, 0], phi2[0, 0] = beta.phi1, beta.phi2
    phi1[0, 1] = 0.5
    phi1[1, 2] = 1.0
    phi2[1, 3] = 1.0
    phi1[2, 2], phi2[2, 2] = delta.phi1, delta.phi2
    phi1[3, 3], phi2[3, 3] = gamma.phi1, gamma.phi2
    if noise_cov is None:
        noise_cov = np.diag([1.0 / ar2_stationary_var(beta), 1.0,
                             1.0 / ar2_stationary_var(delta),
                             1.0 / ar2_stationary_var(gamma)])
    return VarModel(np.stack([phi1, phi2]), noise_cov)


def _opts(overrides, **defaults):
    opts = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown overrides {sorted(unknown)}; "
                              f"accepted: {sorted(defaults)}")
        opts.update(overrides)
    if not opts["fs"] > 0:
        raise ConfigError(f"fs must be positive, got {opts['fs']}")
    for k in ("noise_std", "noise_var"):
        if k in opts and not opts[k] >= 0:
            raise ConfigError(f"{k} must be non-negative, got {opts[k]}")
    return opts


def _sources(T, seed, o, peaks):
    """AR(2) sources peaking at o[k] Hz for k in ``peaks``, and the noise seed."""
    params = [ar2_from_peak(o["M"], o[k] / o["fs"]) for k in peaks]
    src_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    return gen_sources(params, T, src_seed, o["fs"]), noise_seed


def _two_source_mixture(T, seed, overrides, lagged):
    o = _opts(overrides, fs=DEFAULT_FS, M=DEFAULT_M, noise_std=0.5,
              low_freq_hz=2.0, high_freq_hz=40.0, lag=10, weight=1.0)
    sources, mix_seed = _sources(T, seed, o, ("low_freq_hz", "high_freq_hz"))
    c = o["weight"]
    lags = [[0, o["lag"]], [0, 0]] if lagged else None
    series = mix(sources, [[c, c], [0.0, c]], lags, o["noise_std"], mix_seed)
    truth = {
        "name": "lagged_mixture" if lagged else "instant_mixture",
        "sample_rate_hz": o["fs"],
        "low_band_hz": [0.5, 4.0], "high_band_hz": [30.0, 50.0],
        "low_peak_hz": o["low_freq_hz"], "high_peak_hz": o["high_freq_hz"],
        "shared_source": "high",
        "coherent_band": "high",
        "lag": o["lag"] if lagged else 0,
    }
    return series, truth


def _gamma_net(T, seed, overrides, with_alpha_in_x2):
    # X3 is the pure gamma source and stays noise-free: partialling it out
    # then removes the shared oscillation exactly, which is what makes the
    # gamma-band partial coherence between X1 and X2 vanish.  X1 and X2
    # carry observation noise so the off-peak spectral tails of the other
    # sources stay below the noise floor.
    o = _opts(overrides, fs=DEFAULT_FS, M=DEFAULT_M, noise_std=0.5,
              delta_hz=2.0, alpha_hz=10.0, gamma_hz=40.0)
    sources, mix_seed = _sources(T, seed, o, ("delta_hz", "alpha_hz", "gamma_hz"))
    A = np.array([[0.0, 1.0, 1.0], [1.0, float(with_alpha_in_x2), 1.0], [0.0, 0.0, 1.0]])
    series = mix(sources, A, None, [o["noise_std"], o["noise_std"], 0.0], mix_seed)
    truth = {
        "name": "gamma_alpha_net" if with_alpha_in_x2 else "gamma_net",
        "sample_rate_hz": o["fs"],
        "mixing": A.tolist(),
        "source_peaks_hz": [o["delta_hz"], o["alpha_hz"], o["gamma_hz"]],
        "coherent_pairs": {"gamma": [[0, 1], [0, 2], [1, 2]]},
        "partial_coherence_zero": {"gamma": [[0, 1]]},
    }
    if with_alpha_in_x2:
        truth["band_truth"] = {
            "delta": {"coh_01": "zero", "pcoh_01": "zero"},
            "alpha": {"coh_01": "nonzero", "pcoh_01": "nonzero"},
            "gamma": {"coh_01": "nonzero", "pcoh_01": "zero"},
        }
    return series, truth


def _lead_lag(T, seed, overrides):
    o = _opts(overrides, fs=DEFAULT_FS, M=DEFAULT_M, noise_std=0.5,
              delta_hz=2.0, beta_hz=15.0, gamma_hz=30.0, lag=10)
    sources, mix_seed = _sources(T, seed, o, ("delta_hz", "beta_hz", "gamma_hz"))
    h = o["lag"]
    series = mix(sources, [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [[0, 0, 0], [h, h, h]],
                 o["noise_std"], mix_seed)
    truth = {
        "name": "lead_lag", "sample_rate_hz": o["fs"],
        "lead_channel": 0, "lag_channel": 1, "lag": h,
        "shared_band": "delta", "delta_peak_hz": o["delta_hz"],
    }
    return series, truth


def _pdc_net(T, seed, overrides):
    o = _opts(overrides, fs=DEFAULT_FS, M=1.049787)
    model = pdc_net_model(o["M"], o["fs"])
    series = simulate_var(model, T, seed, sample_rate_hz=o["fs"])
    truth = {
        "name": "pdc_net", "sample_rate_hz": o["fs"], "order": 2,
        "root_magnitude": o["M"],
        "peak_freqs": {"delta": 2 / o["fs"], "beta": 20 / o["fs"],
                       "gamma": 40 / o["fs"]},
        # directed edges (source q -> target p), lag of the nonzero coefficient
        "edges": [[2, 1, 1], [3, 1, 2], [1, 0, 1]],
        "self_edges": [0, 2, 3],
        "coeffs": [m.tolist() for m in model.coeffs],
    }
    return series, truth


def _pac(T, seed, overrides):
    o = _opts(overrides, fs=DEFAULT_FS, M=DEFAULT_M, theta_hz=6.0,
              gamma_hz=40.0, noise_var=0.1)
    sources, noise_seed = _sources(T, seed, o, ("theta_hz", "gamma_hz"))
    z_t, z_g = sources.channel(0), sources.channel(1)
    eps = np.random.default_rng(noise_seed).standard_normal((T, 2)) * np.sqrt(o["noise_var"])
    x1 = (z_g + 1.0) * z_t + 2.0 * z_g + eps[:, 0]
    x2 = 4.0 * z_t + z_t * z_g + eps[:, 1]
    series = MultiChannelSeries(np.column_stack([x1, x2]), o["fs"])
    truth = {
        "name": "pac", "sample_rate_hz": o["fs"],
        "phase_band": "theta", "amplitude_band": "gamma",
        "theta_peak_hz": o["theta_hz"], "gamma_peak_hz": o["gamma_hz"],
        "coupled_channels": [0, 1], "noise_var": o["noise_var"],
        "aux": {"sources": sources, "noise": eps},
    }
    return series, truth


def _spca_mix(T, seed, overrides):
    o = _opts(overrides, fs=DEFAULT_FS, M=DEFAULT_M, noise_std=0.5,
              delta_hz=2.0, alpha_hz=10.0, gamma_hz=40.0)
    sources, mix_seed = _sources(T, seed, o, ("delta_hz", "alpha_hz", "gamma_hz"))
    A = np.array([[1.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0],
                  [1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0]])
    series = mix(sources, A, None, o["noise_std"], mix_seed)
    truth = {
        "name": "spca_mix", "sample_rate_hz": o["fs"], "mixing": A.tolist(),
        "source_peaks_hz": [o["delta_hz"], o["alpha_hz"], o["gamma_hz"]],
        "band_channels": {"delta": [0, 2, 4], "alpha": [3, 4],
                          "gamma": [0, 1, 2]},
    }
    return series, truth


def _chirp(T, seed, overrides):
    o = _opts(overrides, fs=DEFAULT_FS, f0_hz=2.0, slope_hz_per_s=0.4,
              amplitude=2.0, noise_std=1.0)
    fs = o["fs"]
    rng = np.random.default_rng(seed)
    t = np.arange(T) / fs
    x = o["amplitude"] * np.sin(2 * np.pi * (o["f0_hz"] + o["slope_hz_per_s"] * t) * t)
    x = x + rng.standard_normal(T) * o["noise_std"]
    series = MultiChannelSeries(x[:, None], fs)
    truth = {
        "name": "chirp", "sample_rate_hz": fs,
        "f0_hz": o["f0_hz"], "slope_hz_per_s": o["slope_hz_per_s"],
        "instantaneous_freq_hz": "f0 + 2 * slope * t_seconds",
    }
    return series, truth


_REGISTRY = {
    "instant_mixture": lambda T, s, o: _two_source_mixture(T, s, o, lagged=False),
    "lagged_mixture": lambda T, s, o: _two_source_mixture(T, s, o, lagged=True),
    "gamma_net": lambda T, s, o: _gamma_net(T, s, o, with_alpha_in_x2=False),
    "gamma_alpha_net": lambda T, s, o: _gamma_net(T, s, o, with_alpha_in_x2=True),
    "lead_lag": _lead_lag,
    "pdc_net": _pdc_net,
    "pac": _pac,
    "spca_mix": _spca_mix,
    "chirp": _chirp,
}


def example_names():
    return sorted(_REGISTRY)


def example(name, T, seed, overrides=None):
    """Generate a named worked example.

    Returns
    -------
    (series, truth) : (MultiChannelSeries, dict)
        ``truth`` is a plain-data descriptor of the structure the generator
        planted (edges, coupled bands, lags).  The "aux" key, when present,
        carries in-memory arrays (latent sources) and is stripped from file
        exports.
    """
    if name not in _REGISTRY:
        raise ConfigError(f"unknown example {name!r}; choose from {example_names()}")
    if T < 64:
        raise ConfigError("examples need T >= 64")
    return _REGISTRY[name](int(T), seed, overrides)
