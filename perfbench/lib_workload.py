"""The ``lib_batch`` workload: the acceptance scenarios, in-process, per seed.

One pass runs every seed of the batch through the library at the acceptance
suite's sizes, generating each scenario with ``example`` inside the pass.
The batch checks reuse the acceptance suite's bounds unchanged.
"""

import hashlib

import numpy as np

from specdep import (FrequencyGrid, MultiChannelSeries, SmoothingKernel,
                     apply_filter, band_by_name, band_coherence, coherence_matrix,
                     design_fir_bandpass, estimate_spectrum, example, fit_lassle,
                     fit_lasso, fit_ols, granger_edges, max_lag_sq_correlation,
                     modulation_index, partial_coherence, pca_encode, pca_fit, pdc,
                     spca_encode, spca_fit)
from specdep.dualfreq import dualfreq_scan
from specdep.var import lasso_kkt_residual

from checks import band_peak_ratios, unit_interval

# A batch is the acceptance suite's own 50 seeds plus 10 that depend on the
# workload seed.  A batch of 60 random seeds would miss criterion 4's 85%
# delta-band bound by chance about once in 50 batches (the per-seed hit rate
# is 92%), and its cost would vary with how many slow-LASSO seeds it drew.
ACCEPTANCE_SEEDS = 50
EXTRA_SEEDS = 10
N_SEEDS = ACCEPTANCE_SEEDS + EXTRA_SEEDS
DELTA, THETA, GAMMA = (band_by_name(b) for b in ("delta", "theta", "gamma"))
FS = 128.0
SIZES = {"instant_mixture": 7680, "gamma_alpha_net": 4096, "pdc_net": 8192,
         "pac": 16384, "spca_mix": 4096, "lead_lag": 8192}
# dualfreq_scan with default smoothing (8 steps of N/2) needs every centre at
# least 4.5 N from both ends of the series, or it exits with a window error.
DF_N = 256
DF_CENTERS = range(1152, SIZES["instant_mixture"] - 1152, 256)
DF_PAIRS = [(0, 40 / FS, 1, 40 / FS), (0, 2 / FS, 1, 40 / FS)]
OPS = ["instant_mixture.band_coherence", "gamma_alpha_net.partial_coherence",
       "pdc_net.lassle2", "pdc_net.ols15", "pdc_net.lassle15",
       "pac.modulation_index", "spca_mix.spca", "lead_lag.causal_lag",
       "instant_mixture.dualfreq_scan"]


def seeds_for(seed, n_seeds=N_SEEDS):
    """The first ``n_seeds`` of the batch for workload seed ``seed``."""
    first = ACCEPTANCE_SEEDS + EXTRA_SEEDS * seed
    return [*range(ACCEPTANCE_SEEDS), *range(first, first + EXTRA_SEEDS)][:n_seeds]


def run_seed(seed, sizes=SIZES):
    """Every op of one seed; an op that raises is recorded as its exception."""
    out = {}

    def op(name, fn):
        try:
            out[name] = fn()
        except Exception as exc:  # an op failure is counted, not fatal
            out[name] = exc

    x, _ = example("instant_mixture", sizes["instant_mixture"], seed)
    op(OPS[0], lambda: (band_coherence(x, 0, 1, GAMMA), band_coherence(x, 0, 1, DELTA)))
    op(OPS[8], lambda: np.array([e["value"] for e in dualfreq_scan(
        x, DF_CENTERS, DF_N, DF_PAIRS).entries]))

    x, truth = example("gamma_alpha_net", sizes["gamma_alpha_net"], seed)

    def pcoh():
        f = estimate_spectrum(x, SmoothingKernel("daniell", 32))
        ks = [f.grid.index_of_hz(hz, FS) for hz in truth["source_peaks_hz"]]
        return coherence_matrix(f).values, partial_coherence(f), ks
    op(OPS[1], pcoh)

    x, truth = example("pdc_net", sizes["pdc_net"], seed)

    def lassle2():
        m = fit_lassle(x, 2, 0.1)
        return m, pdc(m, FrequencyGrid(256)).values, x
    op(OPS[2], lassle2)
    op(OPS[3], lambda: fit_ols(x, 15))
    op(OPS[4], lambda: fit_lassle(x, 15, 0.1))

    x, truth = example("pac", sizes["pac"], seed)

    def mi():
        lat = truth["aux"]["sources"]
        eps = MultiChannelSeries(truth["aux"]["noise"], FS)
        null = [modulation_index(lat, 0, THETA, 0, GAMMA),
                modulation_index(lat, 1, THETA, 1, GAMMA),
                modulation_index(eps, 0, THETA, 0, GAMMA),
                modulation_index(eps, 1, THETA, 1, GAMMA)]
        return [modulation_index(x, 0, THETA, 0, GAMMA),
                modulation_index(x, 1, THETA, 1, GAMMA)] + null
    op(OPS[5], mi)

    x, _ = example("spca_mix", sizes["spca_mix"], seed)
    op(OPS[6], lambda: (spca_encode(x, spca_fit(estimate_spectrum(x), 1)), x))

    x, truth = example("lead_lag", sizes["lead_lag"], seed)

    def lead_lag():
        K = 100
        yc = apply_filter(design_fir_bandpass(DELTA, K, FS, mode="causal"), x).samples
        yc = yc[2 * K:-K]
        return max_lag_sq_correlation(yc[:, 1], yc[:, 0], 80)
    op(OPS[7], lead_lag)
    return out


def run_pass(seeds, sizes=SIZES):
    return [run_seed(s, sizes) for s in seeds]


def warm_up():
    """One small seed through every op, so lazy imports and caches are filled.

    Returns its results: they double as the lib_batch canary.
    """
    small = {k: 4096 for k in SIZES}
    small["instant_mixture"] = SIZES["instant_mixture"]
    return run_seed(0, small)


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _leaves(o)
    elif isinstance(obj, MultiChannelSeries):
        yield obj.samples
    elif hasattr(obj, "coeffs") and hasattr(obj, "noise_cov"):
        yield obj.coeffs
        yield obj.noise_cov
    else:
        yield obj


def numbers(result):
    """Every number of one op's result, flattened (for fingerprints)."""
    parts = [np.ravel(np.asarray(v, dtype=float)) for v in _leaves(result)]
    return np.concatenate(parts) if parts else np.zeros(0)


def digest(per_seed):
    """SHA-256 of one seed's results; an op that raised hashes its message."""
    h = hashlib.sha256()
    for name in OPS:
        r = per_seed[name]
        h.update(name.encode())
        h.update(repr(r).encode() if isinstance(r, Exception) else numbers(r).tobytes())
    return h.hexdigest()


class BatchCheck:
    """Checks one pass seed by seed, keeping only what the criteria need.

    Each op's invariants are checked as its seed finishes.  The acceptance
    criteria run over the whole batch in finish().  A criterion that misses
    its bound fails every op of its kind in the pass, because the batch is
    the unit the bound is defined on.
    """

    def __init__(self, checker):
        self.checker = checker
        self.summaries = {name: [] for name in OPS}
        self.seeds = 0

    def add(self, per_seed):
        self.seeds += 1
        for name in OPS:
            self.checker.attempt()
            r = per_seed[name]
            fail = f"raised {r!r}" if isinstance(r, Exception) else _invariant(name, r)
            if fail:
                self.checker.fail(name, fail)
            else:
                self.summaries[name].append(_summary(name, r))

    def finish(self):
        complete = {name: len(v) == self.seeds for name, v in self.summaries.items()}
        for name, vals in self.summaries.items():
            if complete[name] and (name != OPS[4] or complete[OPS[3]]):
                fail = _criterion(name, vals, self.summaries)
                if fail:
                    self.checker.fail(name, fail, count=len(vals))


def _invariant(name, r):
    """The bounds one result must meet: a message if it misses them, or None."""
    if name == OPS[0]:
        return unit_interval([r[0][0], r[1][0]], name)
    if name == OPS[1]:
        return unit_interval(r[:2], name)
    if name == OPS[2]:
        m, p, x = r
        dev = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        if dev >= 1e-10:
            return f"{name}: PDC column sums deviate by {dev:.1e} (>= 1e-10)"
        kkt = lasso_kkt_residual(x, 2, 0.1, fit_lasso(x, 2, 0.1))
        if kkt >= 1e-5:
            return f"{name}: LASSO KKT residual {kkt:.1e} (>= 1e-5)"
        return unit_interval(p, name)
    if name in (OPS[5], OPS[8]):
        return unit_interval(r, name)
    if name == OPS[7]:
        return unit_interval(r[0], name)
    return None


PLANTED = {(1, 0), (2, 1), (3, 1)}  # pdc_net's off-diagonal edges, (from, to)


def _offdiag(model, threshold):
    e = granger_edges(model, threshold)
    return {(int(q), int(p)) for p, q in zip(*np.nonzero(e)) if p != q}


def _summary(name, r):
    """What the batch criterion of ``name`` needs from one seed's result."""
    if name == OPS[0]:
        return r[0][0], r[1][0]
    if name == OPS[1]:
        c, pc, ks = r
        return [(c[k, 0, 1], pc[k, 0, 1]) for k in ks]
    if name == OPS[2]:
        return _offdiag(r[0], 0.0) == PLANTED
    if name == OPS[3]:
        return len(_offdiag(r, None) - PLANTED)
    if name == OPS[4]:
        return len(_offdiag(r, 0.0) - PLANTED)
    if name == OPS[6]:
        enc, x = r
        return (all(v > 3 for v in band_peak_ratios(enc))
                and not all(v > 3 for v in band_peak_ratios(pca_encode(x, pca_fit(x, 1)))))
    if name == OPS[7]:
        return r[1]
    return r if name == OPS[5] else None


def _criterion(name, vals, summaries):
    """The acceptance suite's batch criterion for this op, or None if met."""
    n = len(vals)
    if name == OPS[0]:
        hi, lo = np.median([g for g, _ in vals]), np.median([d for _, d in vals])
        if not (hi > 0.7 and lo < 0.15):
            return f"criterion 1: median gamma coh {hi:.3f} (>0.7), delta {lo:.3f} (<0.15)"
    elif name == OPS[1]:
        hits = {"delta": 0, "alpha": 0, "gamma": 0}
        for (cd, pd), (ca, pa), (cg, pg) in vals:
            hits["delta"] += cd < 0.1 and pd < 0.1
            hits["alpha"] += ca > 0.3 and pa > 0.3
            hits["gamma"] += cg > 0.3 and pg < 0.1
        if not all(v >= 0.85 * n for v in hits.values()):
            return f"criterion 4: truth-table hits {hits} (each >= 85%)"
    elif name == OPS[2]:
        if sum(vals) < 0.8 * n:
            return f"criterion 5: exact LASSLE(2) support {sum(vals)}/{n} (>= 80%)"
    elif name == OPS[4]:
        fp_ols, fp_lassle = np.median(summaries[OPS[3]]), np.median(vals)
        if not fp_ols > fp_lassle:
            return (f"criterion 5: median false positives OLS(15) {fp_ols:.1f} "
                    f"not > LASSLE(15) {fp_lassle:.1f}")
    elif name == OPS[5]:
        r1 = np.median([v[0] / max(v[2:]) for v in vals])
        r2 = np.median([v[1] / max(v[2:]) for v in vals])
        if not (r1 > 3 and r2 > 3):
            return f"criterion 6: median MI ratios {r1:.2f}, {r2:.2f} (each > 3)"
    elif name == OPS[6]:
        if sum(vals) < 0.8 * n:
            return f"criterion 11: SPCA band capture {sum(vals)}/{n} (>= 80%)"
    elif name == OPS[7]:
        hits = sum(abs(abs(lag) - 10) <= 1 for lag in vals)
        if hits < 0.9 * n:
            return f"criterion 10: causal lag 10+-1 in {hits}/{n} (>= 90%)"
    return None
