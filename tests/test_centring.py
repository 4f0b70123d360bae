"""Mean invariance: every dependence measure reads centred data.

A channel's mean is not an oscillation, so adding a constant in [-100, 100]
to each channel must leave coherence, partial coherence, dual-frequency
coherence, lagged correlation, their band-filtered forms and the SPCA
encoding unchanged up to rounding.  Values in [0, 1] are compared to 1e-8
absolute; the SPCA encoding to 1e-8 of its largest magnitude.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.coherence import (band_coherence, coherence_matrix, estimate_spectrum,
                               partial_coherence, partial_coherence_residual)
from specdep.core import MultiChannelSeries, max_lag_sq_correlation, standard_bands
from specdep.dualfreq import band_dualfreq_coherence, dualfreq_scan
from specdep.spca import spca_encode, spca_fit

TOL = 1e-8
seeds = st.integers(0, 2 ** 16)
bands = st.sampled_from(standard_bands())


def offsets(n):
    return st.lists(st.floats(-100, 100), min_size=n, max_size=n)


def white(T, P, seed):
    return MultiChannelSeries(np.random.default_rng(seed).standard_normal((T, P)), 128.0)


def shifted(series, c):
    return series.with_samples(series.samples + c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(3))
def test_coherence_and_partial_coherence(seed, c):
    s = white(256, 3, seed)
    f, g = estimate_spectrum(s), estimate_spectrum(shifted(s, c))
    assert np.max(np.abs(coherence_matrix(g).values - coherence_matrix(f).values)) < TOL
    assert np.max(np.abs(partial_coherence(g) - partial_coherence(f))) < TOL


# frequencies strictly between grid points k/N, where a window of a constant
# has non-zero local Fourier coefficients
off_grid = st.tuples(st.integers(0, 30), st.floats(0.1, 0.9)).map(lambda kf: (kf[0] + kf[1]) / 64)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(2), wj=off_grid, wk=off_grid)
def test_dualfreq_scan_single_series(seed, c, wj, wk):
    s = white(1024, 2, seed)
    pairs = [(0, wj, 1, wk), (1, wk, 1, wj)]
    want = [e["value"] for e in dualfreq_scan(s, [480, 512], 64, pairs).entries]
    got = [e["value"] for e in dualfreq_scan(shifted(s, c), [480, 512], 64, pairs).entries]
    assert np.max(np.abs(np.subtract(got, want))) < TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=seeds, c=st.lists(offsets(2), min_size=3, max_size=3), wj=off_grid, wk=off_grid)
def test_dualfreq_scan_trials(seed, c, wj, wk):
    # each trial carries its own constants and is centred on its own
    trials = [white(128, 2, seed + r) for r in range(3)]
    pairs = [(0, wj, 1, wk)]
    want = dualfreq_scan(trials, [64], 64, pairs).entries[0]["value"]
    got = dualfreq_scan([shifted(tr, cr) for tr, cr in zip(trials, c)], [64], 64,
                        pairs).entries[0]["value"]
    assert abs(got - want) < TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(2), max_lag=st.integers(0, 20))
def test_max_lag_sq_correlation(seed, c, max_lag):
    x = np.random.default_rng(seed).standard_normal((256, 2))
    value, lag = max_lag_sq_correlation(x[:, 0], x[:, 1], max_lag)
    value_c, lag_c = max_lag_sq_correlation(x[:, 0] + c[0], x[:, 1] + c[1], max_lag)
    assert abs(value_c - value) < TOL
    assert lag_c == lag


# the filtered measures read only samples clear of filter transients, where the
# taps' exact DC null removes a constant
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(2), band=bands)
def test_band_coherence(seed, c, band):
    s = white(2048, 2, seed)
    value, lag = band_coherence(s, 0, 1, band)
    value_c, lag_c = band_coherence(shifted(s, c), 0, 1, band)
    assert abs(value_c - value) < TOL
    assert lag_c == lag


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(3), band=bands)
def test_partial_coherence_residual(seed, c, band):
    s = white(2048, 3, seed)
    want = partial_coherence_residual(s, 0, 1, 2, band)
    assert abs(partial_coherence_residual(shifted(s, c), 0, 1, 2, band) - want) < TOL


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(2), band_1=bands, band_2=bands, t=st.integers(640, 1400))
def test_band_dualfreq_coherence(seed, c, band_1, band_2, t):
    # the longest default order, delta's 512, leaves samples [512, 1535] valid
    s = white(2048, 2, seed)
    want = band_dualfreq_coherence(s, 0, band_1, 1, band_2, t, 128)
    got = band_dualfreq_coherence(shifted(s, c), 0, band_1, 1, band_2, t, 128)
    assert abs(got - want) < TOL


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=seeds, c=offsets(3), Q=st.integers(1, 2))
def test_spca_encode(seed, c, Q):
    s = white(256, 3, seed)
    sol = spca_fit(estimate_spectrum(s), Q, lag_truncation=16)
    want = spca_encode(s, sol).samples
    got = spca_encode(shifted(s, c), sol).samples
    assert np.max(np.abs(got - want)) < TOL * np.max(np.abs(want))
