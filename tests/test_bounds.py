"""Range: every band-filtered dependence measure lies in [0, 1].

Band coherence, residual partial coherence, band dual-frequency coherence
and the modulation index are normalised so that Cauchy-Schwarz (or the KL
bound) keeps them in [0, 1].  The property runs over random channel counts
P in 2..4, even lengths T and seeds, on white noise through a random mixing
matrix so that strongly correlated channels occur too.  A value may leave
[0, 1] by rounding only: by at most 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.coherence import band_coherence, partial_coherence_residual
from specdep.core import MultiChannelSeries, band_by_name
from specdep.dualfreq import band_dualfreq_coherence
from specdep.pac import pac_scan

TOL = 1e-12
# the bands with default orders up to 128 at 128 Hz, so T >= 1024 leaves room
BANDS = [band_by_name(name) for name in ("theta", "alpha", "beta", "gamma")]


def in_unit_interval(v):
    return -TOL <= np.min(v) and np.max(v) <= 1 + TOL


@st.composite
def cases(draw):
    P = draw(st.integers(2, 4))
    T = 2 * draw(st.integers(512, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal((T, P)) @ rng.standard_normal((P, P))
    p, q, *rest = draw(st.permutations(range(P)))
    return MultiChannelSeries(x, 128.0), p, q, rest, draw(st.sampled_from(BANDS))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=cases(), other=st.sampled_from(BANDS))
def test_filtered_measures_in_unit_interval(case, other):
    s, p, q, rest, band = case
    assert in_unit_interval(band_coherence(s, p, q, band)[0])
    for c in rest[:1]:  # a conditioning channel when P >= 3
        assert in_unit_interval(partial_coherence_residual(s, p, q, c, band))
    T = s.n_samples
    assert in_unit_interval(band_dualfreq_coherence(s, p, band, q, other, T // 2, 128))
    mi = pac_scan(s, BANDS[:2], BANDS[2:], pairs=[(p, q), (q, q)])
    assert in_unit_interval(mi)
