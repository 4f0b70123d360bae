"""Vector autoregressive modelling and frequency-domain causality.

Covers VAR representation and simulation, conditional least-squares / LASSO /
LASSLE estimation, order selection, the VAR transfer function, partial
directed coherence (PDC) and its sliding-window version, Granger edge
extraction, and the spectral-VAR analysis that regresses one-sided
band-filtered oscillations on each other to obtain band-to-band directed
edges.
"""

from dataclasses import dataclass
from math import copysign

import numpy as np

from .core import (ConfigError, FrequencyGrid, MultiChannelSeries,
                   TimeVaryingResult, demean, sliding_windows, standard_bands,
                   table_to_csv)
from .filters import band_filter

__all__ = [
    "VarModel",
    "PdcResult",
    "SpectralVarSpec",
    "LassoConvergenceError",
    "simulate_var",
    "fit_ols",
    "fit_lasso",
    "fit_lassle",
    "fit_var",
    "lasso_kkt_residual",
    "select_order",
    "transfer_function",
    "pdc",
    "tv_pdc",
    "granger_edges",
    "spectral_var",
    "model_to_json",
    "model_from_json",
    "edges_to_csv",
]


class LassoConvergenceError(RuntimeError):
    """Coordinate descent failed to converge; carries the last iterate."""

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


class VarModel:
    """A VAR(L) model: X(t) = sum_l Phi_l X(t-l) + W(t), cov W = Sigma_W.

    Parameters
    ----------
    coeffs : ndarray, shape (L, P, P)
        Coefficient matrices Phi_1..Phi_L (L may be 0).
    noise_cov : ndarray, shape (P, P)
        Symmetric PSD innovation covariance.
    coeff_se : ndarray, optional
        Standard errors of the coefficients for least-squares fits; used by
        :func:`granger_edges` when thresholding at 2 standard errors.
    """

    def __init__(self, coeffs, noise_cov, coeff_se=None):
        coeffs = np.asarray(coeffs, dtype=float)
        noise_cov = np.asarray(noise_cov, dtype=float)
        if noise_cov.ndim != 2 or noise_cov.shape[0] != noise_cov.shape[1]:
            raise ConfigError("noise_cov must be square")
        P = noise_cov.shape[0]
        if coeffs.size == 0:
            coeffs = coeffs.reshape(0, P, P)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (P, P):
            raise ConfigError("coeffs must have shape (L, P, P)")
        scale = max(np.max(np.abs(noise_cov)), 1e-300)
        if np.max(np.abs(noise_cov - noise_cov.T)) > 1e-10 * scale:
            raise ConfigError("noise_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (noise_cov + noise_cov.T))) < -1e-10 * scale:
            raise ConfigError("noise_cov must be positive semi-definite")
        self.coeffs = coeffs
        self.noise_cov = noise_cov
        self.coeff_se = None if coeff_se is None else np.asarray(coeff_se, dtype=float)

    @property
    def n_channels(self):
        return self.noise_cov.shape[0]

    @property
    def order(self):
        return self.coeffs.shape[0]

    def companion(self):
        P, L = self.n_channels, self.order
        if L == 0:
            return np.zeros((P, P))
        comp = np.zeros((P * L, P * L))
        comp[:P] = np.concatenate(list(self.coeffs), axis=1)
        if L > 1:
            comp[P:, :P * (L - 1)] = np.eye(P * (L - 1))
        return comp

    def spectral_radius(self):
        if self.order == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))

    def is_stable(self):
        return self.spectral_radius() < 1.0

    def __repr__(self):
        return (f"VarModel(P={self.n_channels}, L={self.order}, "
                f"spectral_radius={self.spectral_radius():.4f})")


def _var_recursion(model, w):
    """Solve x[t] = w[t] + sum_l Phi_l x[t-l] from a zero state, block by block.

    Block realization of a recursive filter (Burrus, IEEE Trans. Audio
    Electroacoust. 20(4), 1972): with blocks of B >= L samples, block k is
    its forced response to its own inputs, one block-Toeplitz product with
    the impulse response h_0..h_{B-1}, plus its free response Psi z_k to the
    L lags z_k = (x[kB-1], ..., x[kB-L]) before it.  Only z is carried from
    block to block, one LP-vector product per block.
    """
    P, L = model.n_channels, model.order
    # B >= L puts a block's L lags inside the block before it; below that,
    # BP <= 256 bounds the block-Toeplitz matrix at 256 x 256
    B = max(L, min(64, 256 // P))
    total = w.shape[0]
    nb = -(-total // B)
    # R[n] = top block row of A^n for the companion matrix A: h_n = R[n][:, :P]
    # and the free response of sample j of a block is R[j + 1] z
    A = model.companion()
    R = np.empty((B + 1, P, L * P))
    R[0] = np.eye(P, L * P)
    for n in range(B):
        R[n + 1] = R[n] @ A
    h = np.concatenate((R[:B, :, :P], np.zeros((1, P, P))))
    lag = np.subtract.outer(np.arange(B), np.arange(B))  # lag[j, i] = j - i
    # H[(i, q), (j, p)] = h_{j-i}[p, q], zero above the diagonal
    H = h[np.where(lag >= 0, lag, B).T].transpose(0, 3, 1, 2).reshape(B * P, B * P)
    psi = R[1:].reshape(B * P, L * P)
    W = np.zeros((nb, B * P))
    W.reshape(-1)[:total * P] = w.reshape(-1)
    forced = W @ H
    # the next block's lags are this block's last L samples, newest first
    last = (np.arange(B - 1, B - L - 1, -1)[:, None] * P + np.arange(P)).reshape(-1)
    carry, g = psi[last], forced[:, last]
    z = np.zeros((nb, L * P))
    for k in range(1, nb):
        z[k] = carry @ z[k - 1] + g[k - 1]
    x = forced + z @ psi.T
    return x.reshape(-1, P)[:total]


def simulate_var(model, T, seed, burn_in=None, sample_rate_hz=1.0,
                 channel_labels=None):
    """Simulate a Gaussian-driven realization of a stable VAR model.

    The first ``burn_in`` samples (default max(500, 10*L*P)) are discarded so
    the output is effectively stationary.  Identical arguments reproduce the
    realization bit for bit.
    """
    if T < 1:
        raise ConfigError("T must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ConfigError("burn_in must be >= 0")
    if not model.is_stable():
        raise ValueError("cannot simulate an unstable VAR model")
    P, L = model.n_channels, model.order
    if burn_in is None:
        burn_in = max(500, 10 * L * P)
    rng = np.random.default_rng(seed)
    total = T + burn_in
    w = rng.standard_normal((total, P))
    cov = 0.5 * (model.noise_cov + model.noise_cov.T)
    ev, U = np.linalg.eigh(cov)
    w = w @ (U * np.sqrt(np.maximum(ev, 0.0))).T
    x = _var_recursion(model, w) if L else w
    return MultiChannelSeries(x[burn_in:], sample_rate_hz, channel_labels)


def _lag_design(x, L):
    """Design matrix of stacked lags: row t has [x(t-1), ..., x(t-L)], t = L..T-1.

    Returns ``(Z, Y)`` with the targets Y = x[L:].  Every VAR fit builds
    its design here, so this is the one check that a VAR(L) in P channels is
    identifiable: T > P*L + max(P, L), so the T - L rows outnumber P*L regressors.
    """
    T, P = x.shape
    if L < 0:
        raise ConfigError("order must be >= 0")
    if L and T <= P * L + max(P, L):
        raise ConfigError(f"T={T} too short to identify a VAR({L}) in {P} channels")
    Z = np.empty((T - L, P * L))
    for l in range(1, L + 1):
        Z[:, (l - 1) * P:l * P] = x[L - l:T - l]
    return Z, x[L:]


def _coeffs_from_rows(B):
    """(L*P, P) regression coefficients, one lag block of rows per lag, as (L, P, P)."""
    P = B.shape[1]
    return B.reshape(-1, P, P).transpose(0, 2, 1)


def _rows_from_coeffs(coeffs):
    """Inverse of :func:`_coeffs_from_rows`."""
    return coeffs.transpose(0, 2, 1).reshape(-1, coeffs.shape[2])


def _model_from_rows(Z, Y, B):
    """VarModel of regression rows B, with the residual covariance over the rows of Z."""
    resid = Y - Z @ B
    return VarModel(_coeffs_from_rows(B), (resid.T @ resid) / Z.shape[0])


def fit_ols(series, L):
    """Conditional least-squares VAR fit.

    Regresses X(t) on its L stacked lags for t = L..T-1; Sigma_W is the
    residual covariance (normalized by the number of regression rows).
    Coefficient standard errors are stored for Granger thresholding.
    """
    x = demean(series).samples
    T, P = x.shape
    L = int(L)
    Z, Y = _lag_design(x, L)
    if L == 0:
        return VarModel(np.zeros((0, P, P)), (x.T @ x) / T)
    G = Z.T @ Z
    try:
        B = np.linalg.solve(G, Z.T @ Y)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("singular regressor Gram matrix in VAR fit")
    model = _model_from_rows(Z, Y, B)
    ginv_diag = np.diag(np.linalg.inv(G))
    model.coeff_se = np.sqrt(np.maximum(
        np.diag(model.noise_cov)[:, None] * ginv_diag.reshape(L, 1, P), 0.0))
    return model


def _lasso_problem(series, L):
    """The standardized LASSO problem of a VAR(L) fit.

    Returns ``(Z, Y, zsd, ysd, G, C)``: the lag design and targets of the
    demeaned series, their column standard deviations, the Gram matrix
    G = Zs'Zs/n of the standardized regressors Zs = Z/zsd and the
    correlations C = Zs'(Y/ysd)/n.  Columns of C whose response is constant
    (ysd 0) are not standardized; their equations are left unfit.
    """
    Z, Y = _lag_design(demean(series).samples, int(L))
    n = Z.shape[0]
    zsd = Z.std(axis=0)
    if np.any(zsd <= 0):
        raise np.linalg.LinAlgError("constant regressor column in LASSO fit")
    ysd = Y.std(axis=0)
    Zs = Z / zsd
    G = Zs.T @ Zs / n
    C = Zs.T @ (Y / np.where(ysd > 0, ysd, 1.0)) / n
    return Z, Y, zsd, ysd, G, C


def _check_lam(lam):
    # NaN fails every comparison, so test for the valid range, not against it
    if not 0 <= lam < np.inf:
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")


def _cd_lasso(G, c, lam, tol, max_sweeps):
    """Cyclic coordinate descent for (1/2n)||y - Z b||^2 + lam ||b||_1.

    Covariance form: takes G = Z'Z/n and c = Z'y/n of unit-variance
    regressors and response, and keeps g = G b current, so a sweep costs
    O(m^2) whatever n is.  Returns the coefficient vector and whether the
    largest update of a sweep fell below ``tol``.
    """
    m = c.size
    diag = G.diagonal().tolist()
    c = c.tolist()
    b = [0.0] * m
    g = np.zeros(m)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(m):
            bj = b[j]
            rho = c[j] - g.item(j) + diag[j] * bj
            bnew = copysign(max(abs(rho) - lam, 0.0), rho) / diag[j]
            if bnew != bj:
                g += (bnew - bj) * G[j]
                b[j] = bnew
                delta = max(delta, abs(bnew - bj))
        if delta < tol:
            return np.array(b), True
    return np.array(b), False


def fit_lasso(series, L, lam, tol=1e-7, max_sweeps=10000):
    """L1-penalized per-equation VAR fit via cyclic coordinate descent.

    Regressors and each response are standardized to unit sample standard
    deviation internally, so ``lam`` is dimensionless; coefficients are
    reported on the original scale.  lam = 0 recovers the least-squares fit;
    lam >= max_j |z_j' y| / n (standardized) zeroes every coefficient.
    Convergence is declared when the largest coefficient update in a sweep
    falls below ``tol``; otherwise :class:`LassoConvergenceError` is raised
    with the partial model attached.
    """
    _check_lam(lam)
    Z, Y, zsd, ysd, G, C = _lasso_problem(series, L)
    B = np.zeros_like(C)
    ok = True
    # equations with a constant response stay zero
    for p in np.nonzero(ysd > 0)[0]:
        b, conv = _cd_lasso(G, C[:, p], lam, tol, max_sweeps)
        ok = ok and conv
        B[:, p] = b * ysd[p] / zsd
    model = _model_from_rows(Z, Y, B)
    if not ok:
        raise LassoConvergenceError(
            f"coordinate descent did not converge in {max_sweeps} sweeps", model)
    return model


def lasso_kkt_residual(series, L, lam, model):
    """Largest KKT violation of a LASSO fit, in standardized coordinates.

    For each equation: |z_j'(y - Zb)/n| <= lam must hold at zero coefficients
    and equal lam sign(b_j) at nonzero ones.  Returns the max violation.
    """
    _check_lam(lam)
    _, _, zsd, ysd, G, C = _lasso_problem(series, L)
    live = ysd > 0
    bstd = _rows_from_coeffs(model.coeffs)[:, live] * zsd[:, None] / ysd[live]
    grad = C[:, live] - G @ bstd
    viol = np.where(bstd == 0, np.abs(grad) - lam, np.abs(grad - lam * np.sign(bstd)))
    return float(np.max(viol, initial=0.0))


def fit_lassle(series, L, lam, tol=1e-7, max_sweeps=10000):
    """Two-stage fit: LASSO support selection, then least squares on it.

    Stage one runs :func:`fit_lasso`; stage two refits each equation by OLS
    restricted to the surviving regressors, solved on the standardized Gram
    matrix of the same LASSO problem, so nonzero coefficients lose the L1
    shrinkage bias while LASSO zeros stay exactly zero.
    """
    # stage one is the public fit_lasso, so code that wraps it (the
    # benchmark's span tracer) also sees LASSLE's LASSO stage
    stage1 = fit_lasso(series, L, lam, tol, max_sweeps)
    Z, Y, zsd, ysd, G, C = _lasso_problem(series, L)
    B1 = _rows_from_coeffs(stage1.coeffs)
    B = np.zeros_like(B1)
    for p in range(B.shape[1]):
        s = np.nonzero(B1[:, p])[0]
        if s.size:
            B[s, p] = np.linalg.solve(G[np.ix_(s, s)], C[s, p]) * ysd[p] / zsd[s]
    return _model_from_rows(Z, Y, B)


def fit_var(series, L, method, lam):
    """Fit a VAR(L) by ``method``: 'ols' (``lam`` unused), 'lasso' or 'lassle'."""
    if method == "ols":
        return fit_ols(series, L)
    if method == "lasso":
        return fit_lasso(series, L, lam)
    if method == "lassle":
        return fit_lassle(series, L, lam)
    raise ConfigError(f"unknown VAR fit method {method!r}")


def select_order(series, L_max, criterion="BIC"):
    """Pick a VAR order by AIC or BIC over OLS fits.

    All candidate orders are fit on the same target samples (t = L_max..T-1)
    so the likelihoods are comparable.  The criterion is
    log det Sigma_hat + penalty * L P^2 / n with penalty 2 (AIC) or log n (BIC).
    """
    criterion = criterion.upper()
    if criterion not in ("AIC", "BIC"):
        raise ConfigError(f"criterion must be AIC or BIC, got {criterion!r}")
    L_max = int(L_max)
    if L_max < 1:
        raise ConfigError("L_max must be >= 1")
    # order L regresses on the leading L*P columns of the order-L_max design
    Z_max, Y = _lag_design(demean(series).samples, L_max)
    n, P = Y.shape
    best_L, best_score = None, np.inf
    for L in range(1, L_max + 1):
        Z = Z_max[:, :L * P]
        B = np.linalg.solve(Z.T @ Z, Z.T @ Y)
        resid = Y - Z @ B
        sigma = (resid.T @ resid) / n
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            continue
        penalty = 2.0 if criterion == "AIC" else np.log(n)
        score = logdet + penalty * L * P * P / n
        if score < best_score:
            best_L, best_score = L, score
    if best_L is None:
        raise np.linalg.LinAlgError("degenerate residual covariance at every order")
    return best_L


def transfer_function(model, grid):
    """Phi(w) = I - sum_{l=1..L} Phi_l exp(-i 2 pi w l) on the grid, (n, P, P)."""
    P, L = model.n_channels, model.order
    w = grid.frequencies
    out = np.broadcast_to(np.eye(P, dtype=complex), (grid.n, P, P)).copy()
    for l in range(1, L + 1):
        out -= np.exp(-2j * np.pi * w * l)[:, None, None] * model.coeffs[l - 1]
    return out


class PdcResult:
    """Partial directed coherence: per-frequency P x P matrix, columns sum to 1."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)


def pdc(model, grid):
    """PDC pi_pq(w) = |Phi_pq(w)|^2 / sum_r |Phi_rq(w)|^2.

    Column q at frequency w is the distribution of outgoing information flow
    from channel q; each column sums to one.
    """
    phi = transfer_function(model, grid)
    num = np.abs(phi) ** 2
    denom = num.sum(axis=1, keepdims=True)
    bad = np.nonzero(denom[:, 0, :] <= 0)
    if bad[0].size:
        k, q = bad[0][0], bad[1][0]
        raise ValueError(
            f"all-zero transfer-function column {q} at grid index {k} "
            f"(frequency {grid.frequencies[k]:.6f})")
    return PdcResult(grid, num / denom)


def tv_pdc(series, L, N, step, method="ols", lam=0.05):
    """Time-varying PDC from per-window VAR fits.

    Each window of N samples gets its own fit (see :func:`fit_var`) and
    PDC on the N-point grid; the result is a
    :class:`~specdep.core.TimeVaryingResult` of kind ``"pdc"`` whose values
    are (n_windows, N, P, P).
    """
    windows = sliding_windows(series, N, step)
    grid = FrequencyGrid(N)
    values = np.stack([pdc(fit_var(win, L, method, lam), grid).values
                       for _, win in windows])
    return TimeVaryingResult(np.array([u for u, _ in windows]), N, int(step),
                             grid, values, "pdc", series.sample_rate_hz)


def granger_edges(model, threshold=0.0):
    """Boolean edge matrix: edge[p, q] says channel q Granger-leads channel p.

    An edge is present when max_l |Phi_pq,l| exceeds ``threshold``.  With
    threshold 0 this is the exact coefficient support (natural for LASSLE
    fits).  Passing ``threshold=None`` uses twice the per-coefficient
    standard error (least-squares fits only).
    """
    P = model.n_channels
    if model.order == 0:
        return np.zeros((P, P), dtype=bool)
    mags = np.abs(model.coeffs)
    if threshold is None:
        if model.coeff_se is None:
            raise ConfigError("threshold=None needs a model with coefficient "
                              "standard errors (an OLS fit)")
        return np.any(mags > 2.0 * model.coeff_se, axis=0)
    return np.max(mags, axis=0) > threshold


@dataclass
class SpectralVarSpec:
    """Configuration of the band-to-band spectral-VAR causality analysis.

    ``channels`` selects series columns (all by default); each is split into
    ``bands`` with one-sided FIR filters of order ``filter_order``.  The
    stacked (channel, band) series is fit with ``method``; ``order`` None
    means BIC selection up to ``order_max``.
    """

    channels: list = None
    bands: list = None
    filter_order: int = 100
    order: int = None
    order_max: int = 8
    method: str = "lassle"
    lam: float = 0.05


def spectral_var(series, spec):
    """Fit a VAR on stacked one-sided band-filtered oscillations.

    Builds X_{p,band}(t) for every selected (channel, band) through causal
    FIR filters, discards the filter start-up, stacks the results into one
    multichannel series, fits it (LASSLE by default, order by BIC when not
    given), and reads band-to-band directed edges off the coefficient
    support.

    Returns
    -------
    (model, edges) : (VarModel, list of dict)
        Each edge dict has from_channel, from_band, to_channel, to_band,
        lag, coefficient.
    """
    if spec.filter_order is None:
        raise ConfigError("spectral-VAR needs a filter_order: its start-up is trimmed")
    channels = spec.channels if spec.channels is not None else list(range(series.n_channels))
    bands = spec.bands if spec.bands is not None else standard_bands()
    fs = series.sample_rate_hz
    cols, labels, tags = [], [], []
    for c in channels:
        for band in bands:
            cols.append(band_filter(series, [c], band, spec.filter_order, "causal")[:, 0])
            labels.append(f"{series.channel_labels[c]}:{band.name}")
            tags.append((c, band.name))
    x = np.column_stack(cols)[spec.filter_order:]
    x = x - x.mean(axis=0, keepdims=True)
    stacked = MultiChannelSeries(x, fs, labels)
    dim = stacked.n_channels
    L = spec.order
    if L is None:
        L = select_order(stacked, spec.order_max, "BIC")
    if stacked.n_samples <= 5 * dim * L:
        raise ConfigError(f"stacked dimension {dim} with order {L} needs "
                          f"T > {5 * dim * L}, have {stacked.n_samples}")
    model = fit_var(stacked, L, spec.method, spec.lam)
    edges = []
    for l in range(model.order):
        nz = np.argwhere(model.coeffs[l] != 0.0)
        for p, q in nz:
            edges.append({
                "from_channel": tags[q][0], "from_band": tags[q][1],
                "to_channel": tags[p][0], "to_band": tags[p][1],
                "lag": l + 1, "coefficient": float(model.coeffs[l, p, q]),
            })
    return model, edges


def model_to_json(model):
    return {
        "P": model.n_channels,
        "L": model.order,
        "coeffs": [m.tolist() for m in model.coeffs],
        "noise_cov": model.noise_cov.tolist(),
    }


def model_from_json(obj):
    P, L = obj["P"], obj["L"]
    coeffs = np.asarray(obj["coeffs"], dtype=float).reshape(L, P, P)
    return VarModel(coeffs, np.asarray(obj["noise_cov"], dtype=float))


def edges_to_csv(edges, path):
    keys = ["from_channel", "from_band", "to_channel", "to_band", "lag", "coefficient"]
    table_to_csv(path, keys, [[e[k] for e in edges] for k in keys])
