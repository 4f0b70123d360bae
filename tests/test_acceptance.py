"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
criterion pins its tolerance explicitly; statistical criteria run fixed seed
batches so results are reproducible.
"""

import time

import numpy as np
import pytest

from specdep.coherence import (coherence, coherence_matrix, estimate_spectrum,
                               partial_coherence, band_coherence)
from specdep.core import (FrequencyGrid, MultiChannelSeries, band_by_name,
                          max_lag_sq_correlation)
from specdep.filters import (FirFilter, apply_filter, design_fir_bandpass,
                             frequency_response, load_taps, save_taps)
from specdep.pac import modulation_index, pac_scan
from specdep.simulate import example, pdc_net_model
from specdep.spca import pca_encode, pca_fit, reconstruction_error, spca_encode, spca_fit
from specdep.spectrum import (SmoothingKernel, ar2_from_peak, periodogram,
                              smooth_periodogram, var_spectrum)
from specdep.var import (VarModel, fit_lassle, fit_lasso, fit_ols, granger_edges,
                         lasso_kkt_residual, pdc, simulate_var)

SEEDS = range(50)
THETA = band_by_name("theta")
GAMMA = band_by_name("gamma")
DELTA = band_by_name("delta")
ALPHA = band_by_name("alpha")

PRINTED_ALPHA_TAPS = [-0.0272, -0.0468, -0.0423, 0.0771, 0.2677,
                      0.3629, 0.2677, 0.0771, -0.0423, -0.0468, -0.0272]


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_instant_mixture_band_contrast():
    """Median gamma coherence > 0.7 and delta < 0.15 over 50 seeds, < 10 s."""
    t0 = time.time()
    hi, lo = [], []
    for seed in SEEDS:
        s, _ = example("instant_mixture", 7680, seed)
        hi.append(band_coherence(s, 0, 1, GAMMA)[0])
        lo.append(band_coherence(s, 0, 1, DELTA)[0])
    elapsed = time.time() - t0
    med_hi, med_lo = np.median(hi), np.median(lo)
    ok = med_hi > 0.7 and med_lo < 0.15 and elapsed < 10.0
    _report(1, ok, f"median gamma coh {med_hi:.3f} (>0.7), delta {med_lo:.3f} "
                   f"(<0.15), {elapsed:.1f}s (<10s)")


def test_criterion_02_lagged_mixture_lag_recovery():
    """|lag| == 10 in >= 90% of seeds; high-band > 0.6, low-band < 0.1."""
    lag_hits = 0
    his, los = [], []
    for seed in SEEDS:
        s, t = example("lagged_mixture", 7680, seed)
        val_hi, lag = band_coherence(s, 0, 1, GAMMA, max_lag=50)
        val_lo, _ = band_coherence(s, 0, 1, DELTA, max_lag=50)
        lag_hits += (abs(lag) == 10)
        his.append(val_hi)
        los.append(val_lo)
    ok = (lag_hits >= 0.9 * len(SEEDS) and np.median(his) > 0.6
          and np.median(los) < 0.1)
    _report(2, ok, f"|lag|=10 in {lag_hits}/{len(SEEDS)} (>=45), median high "
                   f"{np.median(his):.3f} (>0.6), low {np.median(los):.3f} (<0.1)")


def test_criterion_03_gamma_net_coherence_and_partial():
    """All gamma pairs > 0.6 and PC(1,2) < 0.1 at the gamma peak, >= 90%."""
    hits = 0
    for seed in SEEDS:
        s, t = example("gamma_net", 4096, seed)
        pairs_ok = all(band_coherence(s, p, q, GAMMA)[0] > 0.6
                       for p, q in t["coherent_pairs"]["gamma"])
        f = estimate_spectrum(s)
        k = f.grid.index_of_hz(t["source_peaks_hz"][2], s.sample_rate_hz)
        pc_ok = partial_coherence(f)[k, 0, 1] < 0.1
        hits += (pairs_ok and pc_ok)
    ok = hits >= 0.9 * len(SEEDS)
    _report(3, ok, f"gamma pairs>0.6 and PC(1,2)<0.1 in {hits}/{len(SEEDS)} (>=45)")


def test_criterion_04_three_band_truth_table():
    """delta COH,PCOH < 0.1; alpha both > 0.3; gamma COH > 0.3, PCOH < 0.1."""
    hits = {"delta": 0, "alpha": 0, "gamma": 0}
    for seed in SEEDS:
        s, t = example("gamma_alpha_net", 4096, seed)
        f = estimate_spectrum(s, SmoothingKernel("daniell", 32))
        c = coherence_matrix(f).values
        pc = partial_coherence(f)
        kd, ka, kg = (f.grid.index_of_hz(hz, s.sample_rate_hz)
                      for hz in t["source_peaks_hz"])
        hits["delta"] += (c[kd, 0, 1] < 0.1 and pc[kd, 0, 1] < 0.1)
        hits["alpha"] += (c[ka, 0, 1] > 0.3 and pc[ka, 0, 1] > 0.3)
        hits["gamma"] += (c[kg, 0, 1] > 0.3 and pc[kg, 0, 1] < 0.1)
    need = 0.85 * len(SEEDS)
    ok = all(v >= need for v in hits.values())
    _report(4, ok, f"band truth table hits {dict(hits)} (each >= {need:.0f})")


def test_criterion_05_sparse_network_support_recovery():
    """LASSLE(2) exact edges >= 80%; PDC columns stochastic; OLS(15) FP > LASSLE(15) FP."""
    want = {(1, 0), (2, 1), (3, 1)}
    exact = 0
    colsum_ok = True
    fp_ols, fp_lassle = [], []
    grid = FrequencyGrid(256)
    for seed in SEEDS:
        s, t = example("pdc_net", 2 ** 13, seed)
        m2 = fit_lassle(s, 2, 0.1)
        edges = granger_edges(m2, 0.0)
        off = {(int(q), int(p)) for p, q in zip(*np.nonzero(edges)) if p != q}
        exact += (off == want)
        sums = pdc(m2, grid).values.sum(axis=1)
        colsum_ok &= bool(np.max(np.abs(sums - 1.0)) < 1e-10)
        mo = fit_ols(s, 15)
        off_o = {(int(q), int(p)) for p, q in
                 zip(*np.nonzero(granger_edges(mo, None))) if p != q}
        ml = fit_lassle(s, 15, 0.1)
        off_l = {(int(q), int(p)) for p, q in
                 zip(*np.nonzero(granger_edges(ml, 0.0))) if p != q}
        fp_ols.append(len(off_o - want))
        fp_lassle.append(len(off_l - want))
    ok = (exact >= 0.8 * len(SEEDS) and colsum_ok
          and np.median(fp_ols) > np.median(fp_lassle))
    _report(5, ok, f"exact support {exact}/{len(SEEDS)} (>=40), column sums "
                   f"1e-10 {colsum_ok}, FP median OLS15 {np.median(fp_ols):.1f} "
                   f"> LASSLE15 {np.median(fp_lassle):.1f}")


def test_criterion_06_pac_modulation_dominance():
    """MI(X1) and MI(X2) each > 3x the best latent/noise MI, in median."""
    r1, r2 = [], []
    for seed in SEEDS:
        s, t = example("pac", 2 ** 14, seed)
        aux = t["aux"]
        latents = aux["sources"]
        eps = MultiChannelSeries(aux["noise"], s.sample_rate_hz)
        null = max(modulation_index(latents, 0, THETA, 0, GAMMA),
                   modulation_index(latents, 1, THETA, 1, GAMMA),
                   modulation_index(eps, 0, THETA, 0, GAMMA),
                   modulation_index(eps, 1, THETA, 1, GAMMA))
        r1.append(modulation_index(s, 0, THETA, 0, GAMMA) / null)
        r2.append(modulation_index(s, 1, THETA, 1, GAMMA) / null)
    ok = np.median(r1) > 3 and np.median(r2) > 3
    _report(6, ok, f"median MI ratios X1 {np.median(r1):.1f}, X2 "
                   f"{np.median(r2):.1f} (each > 3)")


def test_criterion_07_printed_alpha_taps(tmp_path):
    """Printed taps load verbatim with response max in [8,12] Hz; the
    designed 10th-order alpha filter rejects 2 Hz and 40 Hz four-fold."""
    path = tmp_path / "alpha.taps"
    save_taps(path, PRINTED_ALPHA_TAPS)
    filt = load_taps(path, mode="zero_phase")
    verbatim = np.array_equal(filt.coeffs, np.asarray(PRINTED_ALPHA_TAPS))
    w = np.arange(0.0, 0.5 + 1e-12, 0.005 / 128)
    mags = np.abs(frequency_response(filt, w))
    peak_hz = float(w[np.argmax(mags)] * 128.0)
    peak_ok = 8.0 <= peak_hz <= 12.0
    designed = design_fir_bandpass(ALPHA, 10, 128.0)
    c10 = abs(frequency_response(designed, 10 / 128))
    c2 = abs(frequency_response(designed, 2 / 128))
    c40 = abs(frequency_response(designed, 40 / 128))
    ratio_ok = c10 > 4 * max(c2, c40)
    ok = verbatim and peak_ok and ratio_ok
    _report(7, ok, f"verbatim {verbatim}, printed-tap peak {peak_hz:.2f} Hz in "
                   f"[8,12], designed |C(10)|/max(|C(2)|,|C(40)|) = "
                   f"{c10 / max(c2, c40):.1f} (> 4)")


def test_criterion_08_bivariate_partial_equals_coherence():
    """Matrix partial coherence equals coherence for P=2 to 1e-10, 100 spectra."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = MultiChannelSeries(rng.standard_normal((256, 2)), 128.0)
        f = smooth_periodogram(periodogram(s), SmoothingKernel("daniell", 8))
        pc = partial_coherence(f)[:, 0, 1]
        c = coherence_matrix(f).values[:, 0, 1]
        worst = max(worst, float(np.max(np.abs(pc - c))))
    ok = worst < 1e-10
    _report(8, ok, f"max |PC - COH| over 100 random spectra = {worst:.2e} (< 1e-10)")


def test_criterion_09_var_spectral_oracle():
    """Estimated coherence within 0.1 of the closed-form value at the peak."""
    phi = np.array([[[0.5, 0.4], [0.2, 0.5]]])
    model = VarModel(phi, np.eye(2))
    s = simulate_var(model, 2 ** 15, 123)
    est = estimate_spectrum(s)
    truth = var_spectrum(model, est.grid, 1.0)
    rho_t = coherence(truth, 0, 1)
    rho_e = coherence(est, 0, 1)
    pos = est.grid.frequencies >= 0
    k = np.nonzero(pos)[0][np.argmax(rho_t[pos])]
    gap = abs(rho_t[k] - rho_e[k])
    ok = gap < 0.1
    _report(9, ok, f"|estimated - closed-form| coherence at peak = {gap:.3f} (< 0.1)")


def test_criterion_10_one_vs_two_sided_filters():
    """One-sided filtering keeps the 10-sample lead; zero-phase filtering
    keeps the coherence magnitude but shifts the causal time base."""
    K = 100
    lag_hits = 0
    mag_gaps = []
    anchor_ok = 0
    for seed in SEEDS:
        s, t = example("lead_lag", 8192, seed)
        fs = s.sample_rate_hz
        causal = design_fir_bandpass(DELTA, K, fs, mode="causal")
        zero = design_fir_bandpass(DELTA, K, fs, mode="zero_phase")
        # identical slicing keeps both outputs on the same time base
        yc = apply_filter(causal, s).samples[2 * K:-K]
        yz = apply_filter(zero, s).samples[2 * K:-K]
        val_c, lag_c = max_lag_sq_correlation(yc[:, 1], yc[:, 0], 80)
        val_z, _ = max_lag_sq_correlation(yz[:, 1], yz[:, 0], 80)
        lag_hits += (abs(abs(lag_c) - t["lag"]) <= 1)
        mag_gaps.append(abs(val_c - val_z))
        # mix a zero-phase channel into the causal time base: the recovered
        # lag shifts by the causal group delay K/2 and no longer reads 10
        _, lag_mixed = max_lag_sq_correlation(yc[:, 1], yz[:, 0], 80)
        anchor_ok += (abs(lag_mixed) != t["lag"]
                      and abs(abs(lag_mixed) - (t["lag"] + K // 2)) <= 1)
    ok = (lag_hits >= 0.9 * len(SEEDS) and float(np.median(mag_gaps)) < 0.1
          and anchor_ok >= 0.9 * len(SEEDS))
    _report(10, ok, f"causal lag=10+-1 in {lag_hits}/{len(SEEDS)}, median "
                    f"|coh gap| {np.median(mag_gaps):.3f} (<0.1), mixed-base lag "
                    f"shifted in {anchor_ok}/{len(SEEDS)}")


def _band_peak_ratios(y, fs):
    g = estimate_spectrum(y)
    spec = np.real(g.values[:, 0, 0])
    hz = g.grid.frequencies * fs

    def peak(lo, hi):
        m = (hz >= lo) & (hz <= hi)
        return spec[m].max()

    trough = max(peak(4.5, 7.5), peak(13.0, 29.0))
    return [peak(0.5, 4.0) / trough, peak(8.0, 12.0) / trough,
            peak(30.0, 50.0) / trough]


def test_criterion_11_spectral_pca_captures_all_bands():
    """First spectral PC peaks in delta+alpha+gamma (each > 3x trough) while
    the first classical PC does not, >= 80%; encoded components incoherent."""
    hits = 0
    for seed in SEEDS:
        s, _ = example("spca_mix", 4096, seed)
        f = estimate_spectrum(s)
        sol = spca_fit(f, 1)
        r_spca = _band_peak_ratios(spca_encode(s, sol), s.sample_rate_hz)
        r_pca = _band_peak_ratios(pca_encode(s, pca_fit(s, 1)), s.sample_rate_hz)
        hits += (all(r > 3 for r in r_spca) and not all(r > 3 for r in r_pca))
    meds = []
    for seed in range(10):
        s, _ = example("spca_mix", 4096, seed)
        sol3 = spca_fit(estimate_spectrum(s), 3)
        y = spca_encode(s, sol3)
        fy = estimate_spectrum(y)
        meds.extend(np.median(coherence(fy, p, q))
                    for p in range(3) for q in range(p + 1, 3))
    med = float(np.median(meds))
    ok = hits >= 0.8 * len(SEEDS) and med < 0.05
    _report(11, ok, f"triple-peak SPCA vs PCA in {hits}/{len(SEEDS)} (>=40), "
                    f"encoded coherence median {med:.3f} (<0.05)")


def test_criterion_12_numerical_invariants():
    """PDC stochasticity, Hermitian/PSD, MI bounds, KKT, eigen-tail, Parseval."""
    msgs = []
    # PDC column-stochastic on random stable models
    rng = np.random.default_rng(0)
    grid = FrequencyGrid(128)
    worst_sum = 0.0
    for _ in range(10):
        model = VarModel(rng.standard_normal((2, 3, 3)) * 0.2, np.eye(3))
        if not model.is_stable():
            continue
        v = pdc(model, grid).values
        worst_sum = max(worst_sum, float(np.max(np.abs(v.sum(axis=1) - 1))))
        worst_sum = max(worst_sum, float(max(np.max(v) - 1, -np.min(v), 0.0)))
    msgs.append(f"PDC colsum dev {worst_sum:.1e}")
    ok = worst_sum < 1e-10

    # Hermitian + PSD across the estimator chain
    s, _ = example("gamma_net", 2048, 1)
    kern = SmoothingKernel("daniell", 16)
    raw = periodogram(s)
    sm = smooth_periodogram(raw, kern)
    h = var_spectrum(fit_ols(s, 2), raw.grid, s.sample_rate_hz)
    from specdep.spectrum import shrink_spectral_estimate
    shr = shrink_spectral_estimate(sm, h, kern)
    try:
        for est in (raw, sm, h, shr):
            est.validate()
        msgs.append("Hermitian/PSD ok")
    except ValueError as exc:
        ok = False
        msgs.append(f"PSD violation: {exc}")

    # MI within [0, 1]
    sp, _ = example("pac", 4096, 2)
    mi = pac_scan(sp, [THETA], [GAMMA])
    mi_ok = bool(np.all((mi >= 0) & (mi <= 1)))
    ok = ok and mi_ok
    msgs.append(f"MI in [0,1] {mi_ok}")

    # LASSO KKT residual
    sv, _ = example("pdc_net", 4096, 3)
    lam = 0.1
    kkt = lasso_kkt_residual(sv, 2, lam, fit_lasso(sv, 2, lam))
    ok = ok and kkt < 1e-5
    msgs.append(f"KKT residual {kkt:.1e} (<1e-5)")

    # PCA eigen-tail reconstruction identity within 1%
    sw = MultiChannelSeries(np.random.default_rng(4).standard_normal((2 ** 14, 4))
                            * np.array([2.0, 1.5, 1.0, 0.5]), 128.0)
    full = pca_fit(sw, 4)
    err = reconstruction_error(sw, pca_fit(sw, 2))
    tail = full.eigenvalues[2:].sum()
    tail_ok = abs(err - tail) < 0.01 * tail
    ok = ok and tail_ok
    msgs.append(f"eigen-tail gap {abs(err - tail) / tail:.1e} (<1e-2)")

    # Parseval within 1e-8 relative
    x = sw.samples - sw.samples.mean(axis=0)
    fw = periodogram(sw)
    worst_p = 0.0
    for p in range(4):
        var = np.dot(x[:, p], x[:, p]) / x.shape[0]
        worst_p = max(worst_p, abs(np.mean(fw.values[:, p, p].real) - var) / var)
    ok = ok and worst_p < 1e-8
    msgs.append(f"Parseval dev {worst_p:.1e} (<1e-8)")

    _report(12, ok, "; ".join(msgs))
