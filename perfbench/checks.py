"""Output checks shared by the workloads: counting, invariants, fingerprints.

Fingerprints summarise an output as per-column statistics (count, sum, sum
of absolute values, min, max).  They were recorded at the seed commit on
small fixed-seed inputs (the canary) and are compared within a stated
tolerance: sums to 1e-3 of the reference sum of absolute values, extremes to
1e-5 of the column's largest magnitude, counts and text exactly.  The sum
tolerance leaves room for reordered arithmetic and for LASSO solvers that
stop at a different point inside the 1e-7 sweep tolerance.
"""

import csv
import hashlib
import json

import numpy as np

from specdep import estimate_spectrum

SUM_RTOL = 1e-3
EXTREME_RTOL = 1e-5


class Checker:
    """Counts attempted and failed ops and keeps one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, n=1):
        self.attempted += n

    def fail(self, what, message, count=1):
        self.failed = min(self.failed + count, self.attempted)
        self.messages.append(f"{what}: {message}")


def _flat(values):
    if isinstance(values, np.ndarray):
        return values.ravel().astype(float)
    if isinstance(values, (list, tuple)):
        parts = [_flat(v) for v in values]
        return np.concatenate(parts) if parts else np.zeros(0)
    return np.asarray([values], dtype=float)


def unit_interval(values, what):
    """None if every value is finite and in [0, 1] (to 1e-12), else a message."""
    v = _flat(values)
    if not np.all(np.isfinite(v)):
        return f"{what}: non-finite value"
    if v.size and (v.min() < -1e-12 or v.max() > 1 + 1e-12):
        return f"{what}: value outside [0, 1] (min {v.min():.3g}, max {v.max():.3g})"
    return None


def band_peak_ratios(y):
    """Criterion 11's peak-to-trough ratios of the first channel of ``y`` in
    delta, alpha and gamma: all three above 3 means the bands are captured."""
    g = estimate_spectrum(y)
    spec = np.real(g.values[:, 0, 0])
    hz = g.grid.frequencies * y.sample_rate_hz

    def peak(lo, hi):
        return spec[(hz >= lo) & (hz <= hi)].max()

    trough = max(peak(4.5, 7.5), peak(13.0, 29.0))
    return [peak(0.5, 4.0) / trough, peak(8.0, 12.0) / trough,
            peak(30.0, 50.0) / trough]


def stats(values):
    v = _flat(values)
    if v.size == 0:
        return {"n": 0}
    return {"n": int(v.size), "sum": float(v.sum()), "sumabs": float(np.abs(v).sum()),
            "min": float(v.min()), "max": float(v.max())}


def _text_stats(values):
    return {"n": len(values), "sha256": hashlib.sha256("\n".join(values).encode()).hexdigest()}


def fingerprint_file(path):
    """Per-column statistics of a CSV output, or per-key ones of a JSON output."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            doc = {"": doc}
        return {k: stats(_json_numbers(v)) for k, v in sorted(doc.items())}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {}
    for j, name in enumerate(header):
        col = [r[j] for r in body]
        try:
            out[name] = stats(np.asarray(col, dtype=float))
        except ValueError:
            out[name] = _text_stats(col)
    return out


def _json_numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        obj = [obj[k] for k in sorted(obj)]
    out = []
    for o in obj:
        out.extend(_json_numbers(o))
    return out


def compare(got, ref, where):
    """Messages for every statistic of ``got`` outside tolerance of ``ref``."""
    if set(got) != set(ref):
        return [f"{where}: columns {sorted(got)} != reference {sorted(ref)}"]
    bad = []
    for col, r in ref.items():
        g = got[col]
        for key in ("n", "sha256"):
            if g.get(key) != r.get(key):
                bad.append(f"{where}/{col}: {key} {g.get(key)} != {r.get(key)}")
        if "sum" not in r or "sum" not in g:
            continue
        mag = max(abs(r["min"]), abs(r["max"]))
        for key, tol in (("sum", SUM_RTOL * r["sumabs"]), ("sumabs", SUM_RTOL * r["sumabs"]),
                         ("min", EXTREME_RTOL * mag), ("max", EXTREME_RTOL * mag)):
            if abs(g[key] - r[key]) > tol + 1e-300:
                bad.append(f"{where}/{col}: {key} {g[key]!r} differs from "
                           f"reference {r[key]!r} by more than {tol:.3g}")
    return bad
