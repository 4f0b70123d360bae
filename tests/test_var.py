import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdep.core import ConfigError, FrequencyGrid, MultiChannelSeries, band_by_name, demean
from specdep.simulate import example, pdc_net_model
from specdep.spectrum import ar2_from_peak
from specdep.var import (LassoConvergenceError, SpectralVarSpec, VarModel,
                         edges_to_csv, fit_lassle, fit_lasso, fit_ols, fit_var,
                         granger_edges, lasso_kkt_residual, model_from_json,
                         model_to_json, pdc, select_order, simulate_var,
                         spectral_var, transfer_function, tv_pdc)
from specdep.coherence import tv_coherence
from specdep.var import _coeffs_from_rows, _lag_design, _rows_from_coeffs, _var_recursion


def stable_var2():
    phi1 = np.array([[0.5, 0.2], [0.0, 0.3]])
    phi2 = np.array([[-0.2, 0.0], [0.1, 0.2]])
    return VarModel(np.stack([phi1, phi2]), np.eye(2))


class TestSimulate:
    def test_pure_noise_identity_cov(self):
        model = VarModel(np.zeros((0, 3, 3)), np.eye(3))
        s = simulate_var(model, 2 ** 14, 0)
        cov = np.cov(s.samples.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_ar2_spectral_peak(self):
        p = ar2_from_peak(1.05, 0.2)
        model = VarModel(np.array([[[p.phi1]], [[p.phi2]]]), [[1.0]])
        s = simulate_var(model, 2 ** 14, 1)
        from specdep.spectrum import SmoothingKernel, periodogram, smooth_periodogram
        f = smooth_periodogram(periodogram(s), SmoothingKernel("daniell", 32))
        pos = f.grid.frequencies > 0
        peak = f.grid.frequencies[pos][np.argmax(f.values[pos, 0, 0].real)]
        assert abs(peak - 0.2) < 0.01

    def test_deterministic(self):
        ar2 = VarModel([[[1.8]], [[-0.9]]], [[1.0]])
        for model in (stable_var2(), ar2, pdc_net_model(), long_var()):
            a = simulate_var(model, 512, 42)
            b = simulate_var(model, 512, 42)
            assert np.array_equal(a.samples, b.samples)

    def test_unstable_rejected(self):
        model = VarModel(np.array([[[1.05]]]), [[1.0]])
        with pytest.raises(ValueError):
            simulate_var(model, 100, 0)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ConfigError):
            simulate_var(pdc_net_model(), 100, 0, burn_in=-5)
        assert simulate_var(pdc_net_model(), 100, 0, burn_in=0).n_samples == 100


def driving_noise(model, total, seed):
    """The innovations simulate_var draws for ``total`` samples."""
    w = np.random.default_rng(seed).standard_normal((total, model.n_channels))
    ev, U = np.linalg.eigh(0.5 * (model.noise_cov + model.noise_cov.T))
    return w @ (U * np.sqrt(np.maximum(ev, 0.0))).T


def reference_recursion(model, w):
    """The VAR recursion one sample and one lag at a time, from a zero state."""
    x = np.zeros_like(w)
    for t in range(w.shape[0]):
        acc = w[t].copy()
        for l in range(1, min(model.order, t) + 1):
            acc += model.coeffs[l - 1] @ x[t - l]
        x[t] = acc
    return x


def random_stable_var(P, L, radius, seed):
    """Random VAR(L) whose companion matrix has spectral radius ``radius``."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((L, P, P)) / np.sqrt(P * L)
    rho = VarModel(coeffs, np.eye(P)).spectral_radius()
    # scaling Phi_l by c**l scales every companion eigenvalue by c
    coeffs *= (radius / rho) ** np.arange(1, L + 1)[:, None, None]
    M = rng.standard_normal((P, P))
    return VarModel(coeffs, M @ M.T + 0.1 * np.eye(P))


def long_var():
    """A stable VAR(70) in 3 channels: its order exceeds the default block of 64."""
    coeffs = np.zeros((70, 3, 3))
    coeffs[0] = 0.3 * np.eye(3)
    coeffs[69] = [[0.2, 0.0, 0.0], [0.3, 0.1, 0.0], [0.0, 0.0, -0.2]]
    return VarModel(coeffs, np.eye(3))


def resolve_length(T, P, L):
    """A series length, with "B-1", "B" and "B+1" relative to the kernel's block."""
    B = max(L, min(64, 256 // P))
    return {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1}.get(T, T)


def assert_matches_reference(model, T, seed):
    w = driving_noise(model, T, seed)
    got, ref = _var_recursion(model, w), reference_recursion(model, w)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestVarRecursion:
    """The blocked kernel of simulate_var against the per-sample recursion."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(P=st.integers(1, 5), L=st.integers(1, 4), radius=st.floats(0.1, 0.98),
           T=st.one_of(st.sampled_from(["1", "B-1", "B", "B+1"]), st.integers(1, 700)),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_sample_loop(self, P, L, radius, T, seed):
        model = random_stable_var(P, L, radius, seed)
        assert_matches_reference(model, resolve_length(T, P, L), seed + 1)

    @pytest.mark.parametrize("T", ["1", "B-1", "B", "B+1", 600])
    def test_order_above_default_block(self, T):
        model = long_var()
        assert model.is_stable()
        assert_matches_reference(model, resolve_length(T, 3, 70), 4)

    @pytest.mark.parametrize("T", ["1", "B-1", "B", "B+1", 5000])
    def test_matches_lfilter(self, T):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        p = ar2_from_peak(1.05, 0.2)
        model = VarModel([[[p.phi1]], [[p.phi2]]], [[2.0]])
        w = driving_noise(model, resolve_length(T, 1, 2), 9)
        got = _var_recursion(model, w)[:, 0]
        ref = lfilter([1.0], [1.0, -p.phi1, -p.phi2], w[:, 0])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_simulate_var_runs_the_kernel(self):
        model = pdc_net_model()
        got = simulate_var(model, 300, 5, burn_in=20).samples
        ref = reference_recursion(model, driving_noise(model, 320, 5))[20:]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFitOls:
    def test_var2_recovery(self):
        model = stable_var2()
        s = simulate_var(model, 2 ** 14, 2)
        fit = fit_ols(s, 2)
        assert np.max(np.abs(fit.coeffs - model.coeffs)) < 0.05

    def test_white_noise_small_coeffs(self):
        s = MultiChannelSeries(np.random.default_rng(3).standard_normal((2 ** 13, 2)), 1.0)
        fit = fit_ols(s, 1)
        assert np.max(np.abs(fit.coeffs)) < 0.05

    def test_order_zero(self):
        rng = np.random.default_rng(4)
        s = MultiChannelSeries(rng.standard_normal((1024, 2)) * [1.0, 2.0], 1.0)
        fit = fit_ols(s, 0)
        x = demean(s).samples
        assert fit.order == 0
        assert np.allclose(fit.noise_cov, (x.T @ x) / 1024)

    def test_standard_errors_match_per_equation_loop(self):
        x, _ = example("pdc_net", 1024, 3)
        L, P = 3, 4
        model = fit_ols(x, L)
        Z, _ = _lag_design(demean(x).samples, L)
        ginv_diag = np.diag(np.linalg.inv(Z.T @ Z))
        for p in range(P):
            se_flat = np.sqrt(np.maximum(model.noise_cov[p, p] * ginv_diag, 0.0))
            for l in range(1, L + 1):
                assert np.array_equal(model.coeff_se[l - 1, p], se_flat[(l - 1) * P:l * P])

    def test_lag_block_reshapes_match_loops(self):
        B = np.random.default_rng(0).standard_normal((3 * 4, 4))
        coeffs = _coeffs_from_rows(B)
        assert np.array_equal(coeffs, np.stack([B[(l - 1) * 4:l * 4].T for l in range(1, 4)]))
        assert np.array_equal(_rows_from_coeffs(coeffs),
                              np.concatenate([c.T for c in coeffs], axis=0))

    def test_roundtrip_error_decays_with_t(self):
        # error should roughly halve from T=2^12 to T=2^14 (1/sqrt(T) rate);
        # assert a clear decay margin below the theoretical factor 2
        model = stable_var2()
        ratios = []
        for seed in range(11):
            e = []
            for T in (2 ** 12, 2 ** 14):
                fit = fit_ols(simulate_var(model, T, seed + 50), 2)
                e.append(np.max(np.abs(fit.coeffs - model.coeffs)))
            ratios.append(e[0] / e[1])
        assert np.median(ratios) > 1.5


class TestFitLasso:
    def test_zero_lambda_equals_ols(self):
        s = simulate_var(stable_var2(), 4096, 5)
        a = fit_lasso(s, 2, 0.0)
        b = fit_ols(s, 2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-5

    def test_large_lambda_all_zero(self):
        s = simulate_var(stable_var2(), 2048, 6)
        # the implementation's zero threshold in standardized coordinates
        x = demean(s).samples
        T = x.shape[0]
        Z = np.hstack([x[1:T - 1], x[:T - 2]])
        Y = x[2:]
        Zs = Z / Z.std(axis=0)
        lam_max = max(np.max(np.abs(Zs.T @ (Y[:, p] / Y[:, p].std()))) / Z.shape[0]
                      for p in range(2))
        fit = fit_lasso(s, 2, lam_max * (1 + 1e-10))
        assert np.all(fit.coeffs == 0.0)

    def test_example7_zero_pattern_recall(self):
        truth = pdc_net_model()
        true_zero = truth.coeffs == 0.0
        recalls = []
        for seed in range(10):
            s, _ = example("pdc_net", 4096, seed)
            fit = fit_lasso(s, 2, 0.1)
            est_zero = fit.coeffs == 0.0
            recalls.append(np.mean(est_zero[true_zero]))
        assert np.mean(recalls) >= 0.9

    def test_objective_decreases_and_kkt(self):
        s = simulate_var(stable_var2(), 2048, 7)
        lam = 0.05

        def objective(model):
            x = demean(s).samples
            T = x.shape[0]
            Z = np.hstack([x[1:T - 1], x[:T - 2]])
            Y = x[2:]
            n = Z.shape[0]
            zsd = Z.std(axis=0)
            total = 0.0
            B = np.concatenate([model.coeffs[l].T for l in range(2)], axis=0)
            for p in range(2):
                ysd = Y[:, p].std()
                bs = B[:, p] * zsd / ysd
                r = Y[:, p] / ysd - (Z / zsd) @ bs
                total += 0.5 * np.dot(r, r) / n + lam * np.sum(np.abs(bs))
            return total

        objs = []
        for sweeps in (1, 2, 3, 5, 8):
            try:
                m = fit_lasso(s, 2, lam, max_sweeps=sweeps)
            except LassoConvergenceError as exc:
                m = exc.model
            objs.append(objective(m))
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
        final = fit_lasso(s, 2, lam)
        assert lasso_kkt_residual(s, 2, lam, final) < 1e-5

    def test_nonconvergence_carries_iterate(self):
        s = simulate_var(stable_var2(), 2048, 8)
        with pytest.raises(LassoConvergenceError) as err:
            fit_lasso(s, 2, 0.01, tol=0.0, max_sweeps=3)
        assert err.value.model is not None


class TestFitLassle:
    def test_zero_lambda_equals_ols(self):
        s = simulate_var(stable_var2(), 4096, 9)
        a = fit_lassle(s, 2, 0.0)
        b = fit_ols(s, 2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-5

    def test_zeros_preserved_exactly(self):
        s, _ = example("pdc_net", 4096, 10)
        lam = 0.1
        l1 = fit_lasso(s, 2, lam)
        l2 = fit_lassle(s, 2, lam)
        assert np.all(l2.coeffs[l1.coeffs == 0.0] == 0.0)

    def test_lower_bias_than_lasso_on_nonzeros(self):
        truth = pdc_net_model()
        nz = truth.coeffs != 0.0
        lam = 0.1
        bias_lasso, bias_lassle = [], []
        for seed in range(100):
            s, _ = example("pdc_net", 2048, seed)
            m1 = fit_lasso(s, 2, lam)
            m2 = fit_lassle(s, 2, lam)
            bias_lasso.append(np.mean(np.abs(m1.coeffs - truth.coeffs)[nz]))
            bias_lassle.append(np.mean(np.abs(m2.coeffs - truth.coeffs)[nz]))
        assert np.median(bias_lassle) < np.median(bias_lasso)


def test_fit_var_dispatch():
    x, _ = example("pdc_net", 1024, 3)
    for method, ref in (("ols", fit_ols(x, 2)), ("lasso", fit_lasso(x, 2, 0.1)),
                        ("lassle", fit_lassle(x, 2, 0.1))):
        assert np.array_equal(fit_var(x, 2, method, 0.1).coeffs, ref.coeffs)
    with pytest.raises(ConfigError):
        fit_var(x, 2, "ridge", 0.1)


class TestSelectOrder:
    def test_bic_finds_var2(self):
        model = stable_var2()
        hits = 0
        for seed in range(10):
            s = simulate_var(model, 2 ** 14, seed + 20)
            hits += select_order(s, 8, "BIC") == 2
        assert hits >= 9

    def test_white_noise_selects_minimum(self):
        s = MultiChannelSeries(np.random.default_rng(11).standard_normal((2 ** 13, 2)), 1.0)
        assert select_order(s, 6, "BIC") == 1
        fit = fit_ols(s, 1)
        assert np.max(np.abs(fit.coeffs)) < 0.05

    def test_aic_at_least_bic(self):
        model = stable_var2()
        hits = 0
        for seed in range(10):
            s = simulate_var(model, 4096, seed + 40)
            hits += select_order(s, 8, "AIC") >= select_order(s, 8, "BIC")
        assert hits >= 5


def _cd_lasso_residual(Zs, ys, lam, tol, max_sweeps):
    """Reference: the residual-form coordinate descent the Gram form replaced."""
    n, m = Zs.shape
    col_sq = np.einsum("ij,ij->j", Zs, Zs) / n
    b = np.zeros(m)
    r = ys.copy()
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(m):
            bj = b[j]
            if bj != 0.0:
                r += bj * Zs[:, j]
            rho = np.dot(Zs[:, j], r) / n
            bnew = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if bnew != 0.0:
                r -= bnew * Zs[:, j]
            b[j] = bnew
            delta = max(delta, abs(bnew - bj))
        if delta < tol:
            return b, True
    return b, False


def reference_lasso(series, L, lam, max_sweeps=10000, tol=1e-7):
    """Per-equation residual-form LASSO and LASSLE rows, KKT and convergence."""
    x = demean(series).samples
    Z, Y = _lag_design(x, L)
    n, P = Y.shape
    zsd = Z.std(axis=0)
    Zs = Z / zsd
    B = np.zeros((Z.shape[1], P))
    B2 = np.zeros_like(B)
    ok, kkt = True, 0.0
    for p in range(P if L else 0):
        ysd = Y[:, p].std()
        b, conv = _cd_lasso_residual(Zs, Y[:, p] / ysd, lam, tol, max_sweeps)
        ok = ok and conv
        B[:, p] = b * ysd / zsd
        grad = Zs.T @ (Y[:, p] / ysd - Zs @ b) / n
        kkt = max(kkt, float(np.max(np.where(b == 0, np.abs(grad) - lam,
                                             np.abs(grad - lam * np.sign(b))))))
        s = np.nonzero(b)[0]
        if s.size:
            B2[s, p] = np.linalg.solve(Z[:, s].T @ Z[:, s], Z[:, s].T @ Y[:, p])
    return B, B2, kkt, ok


def ma_series(T, P, seed):
    """A cross-coupled MA(2) series: lagged dependence, stationary for any coefficients."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((T + 2, P))
    x = e[2:] + e[1:-1] @ rng.standard_normal((P, P)) / np.sqrt(P) - 0.3 * e[:-2]
    return MultiChannelSeries(x, 1.0)


class TestGramLasso:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(P=st.integers(1, 4), L=st.integers(0, 4), lam=st.floats(0.0, 0.3),
           seed=st.integers(0, 2 ** 16), sweeps=st.sampled_from([3, 10000]))
    def test_matches_residual_form(self, P, L, lam, seed, sweeps):
        s = ma_series(256, P, seed)
        B, B2, kkt, ok = reference_lasso(s, L, lam, max_sweeps=sweeps)
        try:
            model, conv = fit_lasso(s, L, lam, max_sweeps=sweeps), True
        except LassoConvergenceError as exc:
            model, conv = exc.model, False
        assert conv == ok
        got = _rows_from_coeffs(model.coeffs)
        assert np.max(np.abs(got - B), initial=0.0) < 1e-10
        assert np.array_equal(got != 0, B != 0)
        if ok:
            assert abs(lasso_kkt_residual(s, L, lam, model) - kkt) < 1e-10
            assert kkt < 1e-5
            got2 = _rows_from_coeffs(fit_lassle(s, L, lam).coeffs)
            assert np.max(np.abs(got2 - B2), initial=0.0) < 1e-10
            assert np.array_equal(got2 != 0, B2 != 0)

    def test_lassle_first_stage_is_fit_lasso(self, monkeypatch):
        # a wrapper of the module's fit_lasso (a profiler, the benchmark's
        # span tracer) must see LASSLE's LASSO stage
        import specdep.var as var
        seen = []

        def spy(*args):
            seen.append(args)
            return fit_lasso(*args)

        monkeypatch.setattr(var, "fit_lasso", spy)
        s = ma_series(256, 2, 1)
        fit_lassle(s, 2, 0.1)
        assert seen == [(s, 2, 0.1, 1e-7, 10000)]

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
    def test_invalid_lambda_rejected(self, lam):
        s = ma_series(256, 2, 1)
        for fit in (fit_lasso, fit_lassle):
            with pytest.raises(ConfigError):
                fit(s, 2, lam)
        with pytest.raises(ConfigError):
            lasso_kkt_residual(s, 2, lam, VarModel(np.zeros((2, 2, 2)), np.eye(2)))

    def test_constant_regressor_raises(self):
        x = np.random.default_rng(5).standard_normal((512, 3))
        x[:, 1] = 2.5
        s = MultiChannelSeries(x, 1.0)
        with pytest.raises(np.linalg.LinAlgError):
            fit_lasso(s, 2, 0.1)
        with pytest.raises(np.linalg.LinAlgError):
            lasso_kkt_residual(s, 2, 0.1, VarModel(np.zeros((2, 3, 3)), np.eye(3)))

    def test_select_order_matches_per_order_designs(self):
        def reference(s, L_max, criterion):
            x = demean(s).samples
            T, P = x.shape
            n = T - L_max
            scores = []
            for L in range(1, L_max + 1):
                Z = np.hstack([x[L_max - l:T - l] for l in range(1, L + 1)])
                Y = x[L_max:]
                resid = Y - Z @ np.linalg.solve(Z.T @ Z, Z.T @ Y)
                penalty = 2.0 if criterion == "AIC" else np.log(n)
                scores.append(np.linalg.slogdet(resid.T @ resid / n)[1]
                              + penalty * L * P * P / n)
            return int(np.argmin(scores)) + 1

        for seed in range(6):
            s, _ = example("pdc_net", 1024, seed)
            for criterion in ("AIC", "BIC"):
                assert select_order(s, 6, criterion) == reference(s, 6, criterion)


class TestTransferFunction:
    def test_order_zero_identity(self):
        model = VarModel(np.zeros((0, 2, 2)), np.eye(2))
        phi = transfer_function(model, FrequencyGrid(16))
        assert np.allclose(phi, np.eye(2))

    def test_dc_value(self):
        model = stable_var2()
        grid = FrequencyGrid(64)
        phi = transfer_function(model, grid)
        k0 = grid.index_of(0.0)
        assert np.allclose(phi[k0], np.eye(2) - model.coeffs.sum(axis=0), atol=1e-12)

    def test_conjugate_symmetry(self):
        model = stable_var2()
        grid = FrequencyGrid(64)
        phi = transfer_function(model, grid)
        for k in (3, 10, 25):
            ip = grid.index_of(k / 64)
            im = grid.index_of(-k / 64)
            assert np.allclose(phi[im], phi[ip].conj(), atol=1e-12)


class TestPdc:
    def test_diagonal_model(self):
        p = ar2_from_peak(1.1, 0.2)
        phi1 = np.diag([p.phi1, 0.4])
        phi2 = np.diag([p.phi2, 0.0])
        model = VarModel(np.stack([phi1, phi2]), np.eye(2))
        res = pdc(model, FrequencyGrid(128))
        off = res.values.copy()
        off[:, [0, 1], [0, 1]] = 0.0
        assert np.max(off) < 1e-12
        assert np.allclose(res.values[:, 0, 0], 1.0)

    def test_example7_band_dominance(self):
        model = pdc_net_model()
        grid = FrequencyGrid(1024)
        res = pdc(model, grid)
        kd = grid.index_of(2 / 128)
        kg = grid.index_of(40 / 128)
        for k, (p, q) in ((kd, (1, 2)), (kg, (1, 3))):
            vals = res.values[k].copy()
            vals[np.arange(4), np.arange(4)] = 0.0
            assert np.unravel_index(np.argmax(vals), vals.shape) == (p, q)
        # X2 -> X1 flow is the only outflow from channel 2
        assert np.all(res.values[:, 0, 1] > 0.15)

    def test_column_sums_random_models(self):
        rng = np.random.default_rng(12)
        grid = FrequencyGrid(64)
        for _ in range(20):
            P = rng.integers(2, 5)
            phi = rng.standard_normal((2, P, P)) * 0.2
            model = VarModel(phi, np.eye(P))
            if not model.is_stable():
                continue
            res = pdc(model, grid)
            sums = res.values.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-10
            assert np.all((res.values >= 0) & (res.values <= 1 + 1e-12))


class TestTvPdc:
    def _switching_series(self, seed, edge_second_half=True):
        quiet = VarModel(np.array([[[0.5, 0.0], [0.0, 0.5]]]), np.eye(2))
        loud = VarModel(np.array([[[0.5, 0.45], [0.0, 0.5]]]), np.eye(2))
        a = simulate_var(quiet, 4096, seed)
        b = simulate_var(loud if edge_second_half else quiet, 4096, seed + 1)
        return MultiChannelSeries(np.vstack([a.samples, b.samples]), 1.0)

    def test_stationary_stability(self):
        model = VarModel(np.array([[[0.5, 0.3], [0.0, 0.5]]]), np.eye(2))
        s = simulate_var(model, 8192, 13)
        res = tv_pdc(s, 1, 1024, 512)
        k0 = res.grid.index_of(0.0)
        vals = res.values[:, k0, 0, 1]
        assert vals.std() < 0.15

    def test_two_regime_rise(self):
        s = self._switching_series(14)
        res = tv_pdc(s, 1, 1024, 1024)
        k0 = res.grid.index_of(0.0)
        vals = res.values[:, k0, 0, 1]
        first = vals[res.centers < 0.45].mean()
        second = vals[res.centers > 0.55].mean()
        assert second - first > 0.3

    def test_full_window_reduces_to_static(self):
        model = stable_var2()
        s = simulate_var(model, 2048, 15)
        res = tv_pdc(s, 2, 2048, 100)
        assert len(res.values) == 1
        static = pdc(fit_ols(s, 2), res.grid)
        assert np.allclose(res.values[0], static.values, atol=1e-12)

    def test_same_windows_as_tv_coherence(self):
        s = simulate_var(stable_var2(), 1000, 16)
        res = tv_pdc(s, 2, 128, 96)
        coh = tv_coherence(s, 128, 96)
        assert np.array_equal(res.centers, coh.centers)
        assert res.kind == "pdc" and res.grid == FrequencyGrid(128)
        assert res.values.shape == (len(coh.centers), 128, 2, 2)


# Every fit rejects a VAR(L) in P channels on T = P*L + max(P, L) samples and
# fits on one more: then there are more samples than P*L + P and more design
# rows (T - L) than regressors (P*L).  tv_pdc's T is its window N, which must
# be even, so there it rejects the largest even window up to the boundary and
# fits a window two samples longer.
IDENTIFY_FITS = {
    "fit_ols": lambda s, L: fit_ols(s, L),
    "fit_lasso": lambda s, L: fit_lasso(s, L, 0.05),
    "fit_lassle": lambda s, L: fit_lassle(s, L, 0.05),
    "select_order": lambda s, L: select_order(s, L),
    "tv_pdc": lambda s, L: tv_pdc(s, L, s.n_samples, 1),
}


class TestIdentifiability:
    @pytest.mark.parametrize("fit", sorted(IDENTIFY_FITS))
    @pytest.mark.parametrize("P, L", [(2, 1), (3, 1), (4, 2), (2, 3), (1, 2)])
    def test_boundary(self, fit, P, L):
        T = P * L + max(P, L)
        if fit == "tv_pdc":
            T -= T % 2
        x = np.random.default_rng(10 * P + L).standard_normal((T + 2, P))
        with pytest.raises(ConfigError, match="too short"):
            IDENTIFY_FITS[fit](MultiChannelSeries(x[:T], 1.0), L)
        ok = T + 2 if fit == "tv_pdc" else T + 1
        IDENTIFY_FITS[fit](MultiChannelSeries(x[:ok], 1.0), L)


class TestGrangerEdges:
    def test_diagonal_no_edges(self):
        model = VarModel(np.stack([np.diag([0.4, 0.3])]), np.eye(2))
        e = granger_edges(model, 0.0)
        assert not e[0, 1] and not e[1, 0]
        assert e[0, 0] and e[1, 1]

    def test_infinite_threshold_empty(self):
        e = granger_edges(stable_var2(), np.inf)
        assert not e.any()

    def test_2se_rule_on_ols(self):
        s, t = example("pdc_net", 8192, 16)
        fit = fit_ols(s, 2)
        e = granger_edges(fit, None)
        for q, p, _lag in t["edges"]:
            assert e[p, q]

    def test_example7_lassle_exact_support(self):
        want = {(1, 0), (2, 1), (3, 1)}
        hits = 0
        for seed in range(10):
            s, _ = example("pdc_net", 2 ** 13, seed)
            e = granger_edges(fit_lassle(s, 2, 0.1), 0.0)
            off = {(int(q), int(p)) for p, q in zip(*np.nonzero(e)) if p != q}
            hits += (off == want)
        assert hits >= 8


class TestSpectralVar:
    def test_single_channel_single_band_reduction(self):
        s, _ = example("lead_lag", 4096, 17)
        one = s.select([0])
        spec = SpectralVarSpec(bands=[band_by_name("delta")], filter_order=64,
                               order=2, method="lassle", lam=0.05)
        model, edges = spectral_var(one, spec)
        assert model.n_channels == 1
        from specdep.filters import apply_filter, design_fir_bandpass
        filt = design_fir_bandpass(band_by_name("delta"), 64, s.sample_rate_hz, "causal")
        y = apply_filter(filt, one).samples[64:]
        ref = fit_lassle(MultiChannelSeries(y - y.mean(axis=0), s.sample_rate_hz), 2, 0.05)
        assert np.allclose(model.coeffs, ref.coeffs, atol=1e-12)

    def test_lead_lag_edge_recovered(self):
        hits = 0
        for seed in range(5):
            s, t = example("lead_lag", 8192, seed + 60)
            spec = SpectralVarSpec(bands=[band_by_name("delta")], filter_order=100,
                                   order=12, method="lassle", lam=0.05)
            model, edges = spectral_var(s, spec)
            fwd = [e for e in edges if e["from_channel"] == 0 and e["to_channel"] == 1]
            hits += bool(fwd)
        assert hits >= 4

    def test_cross_band_null_false_positives(self):
        fp = []
        delta, gamma = band_by_name("delta"), band_by_name("gamma")
        for seed in range(10):
            # two channels carrying independent band sources
            rng = np.random.default_rng(seed)
            from specdep.simulate import gen_sources
            zs = gen_sources([ar2_from_peak(1.05, 2 / 128), ar2_from_peak(1.05, 40 / 128)],
                             4096, seed, 128.0)
            x = zs.samples + 0.3 * rng.standard_normal((4096, 2))
            s = MultiChannelSeries(x, 128.0)
            spec = SpectralVarSpec(bands=[delta, gamma], filter_order=64,
                                   order=3, method="lassle", lam=0.1)
            model, edges = spectral_var(s, spec)
            cross = [e for e in edges if e["from_channel"] != e["to_channel"]]
            dim_pairs = 4 * 3  # (channel, band) pairs excluding self
            fp.append(len({(e["from_channel"], e["from_band"],
                            e["to_channel"], e["to_band"]) for e in cross}) / dim_pairs)
        assert np.mean(fp) < 0.10

    def test_dimension_guard(self):
        s, _ = example("gamma_net", 512, 19)
        spec = SpectralVarSpec(filter_order=64, order=8)
        with pytest.raises(ConfigError):
            spectral_var(s, spec)


class TestSerialization:
    def test_model_json_roundtrip(self):
        model = stable_var2()
        back = model_from_json(model_to_json(model))
        assert np.allclose(back.coeffs, model.coeffs)
        assert np.allclose(back.noise_cov, model.noise_cov)

    def test_edges_csv(self, tmp_path):
        edges = [{"from_channel": 0, "from_band": "delta", "to_channel": 1,
                  "to_band": "delta", "lag": 10, "coefficient": 0.75}]
        path = tmp_path / "edges.csv"
        edges_to_csv(edges, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("from_channel")
        assert "delta" in lines[1]


class TestConsistencyWithSpectrum:
    def test_model_coherence_matches_estimate_at_peak(self):
        from specdep.coherence import coherence
        from specdep.spectrum import var_spectrum
        from specdep.coherence import estimate_spectrum
        phi = np.array([[[0.5, 0.3], [0.1, 0.4]]])
        model = VarModel(phi, np.eye(2))
        s = simulate_var(model, 2 ** 14, 21)
        est = estimate_spectrum(s)
        truth = var_spectrum(model, est.grid, 1.0)
        rho_t = coherence(truth, 0, 1)
        rho_e = coherence(est, 0, 1)
        pos = est.grid.frequencies >= 0
        k = np.nonzero(pos)[0][np.argmax(rho_t[pos])]
        assert abs(rho_t[k] - rho_e[k]) < 0.1
