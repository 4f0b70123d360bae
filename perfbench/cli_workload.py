"""The ``cli_spectral`` and ``cli_var`` workloads: one ``specdep`` process per op.

Set-up writes the input CSVs with ``specdep simulate``; a pass runs every op
of the workload once, each as a fresh ``python -m specdep.cli`` process, in
a closed loop with one client.
"""

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np

import specdep.cli
from specdep import MultiChannelSeries
from specdep.var import lasso_kkt_residual, model_from_json

from checks import band_peak_ratios, unit_interval

FS = "128"
T = 8192
# input key -> (example scenario, channels)
FILES = {"net": ("pdc_net", 4), "mix": ("spca_mix", 5), "pac": ("pac", 2)}
TVCOH_WINDOW = (1024, 512)

# workload -> op name -> (input key, specdep argv after the input, outputs)
WORKLOADS = {
    "cli_spectral": {
        "coherence": ("net", ["coherence"], ["coherence.csv"]),
        "pcoh": ("net", ["pcoh"], ["pcoh.csv"]),
        "spectrum": ("net", ["spectrum"], ["spectrum.csv"]),
        "spca": ("mix", ["spca", "-Q", "2", "--encode", "{out}/spca_enc.csv"],
                 ["spca.json", "spca_enc.csv"]),
        "tvcoh": ("net", ["tvcoh", "--window", "%d:%d" % TVCOH_WINDOW, "--partial"],
                  ["tvcoh.csv"]),
    },
    "cli_var": {
        "scau": ("net", ["scau", "--bands", "delta,beta,gamma", "--order", "12"],
                 ["scau.csv"]),
        "var-fit": ("net", ["var-fit", "--order", "15", "--method", "lasso"],
                    ["var-fit.json"]),
        "pdc": ("net", ["pdc"], ["pdc.json"]),
        "pac": ("pac", ["pac", "--low", "theta,alpha", "--high", "beta,gamma"],
                ["pac.csv"]),
    },
}


def inputs_of(workload):
    return sorted({key for key, _, _ in WORKLOADS[workload].values()})


def simulate_argv(key, seed, in_dir, T=T):
    return ["simulate", "--example", FILES[key][0], "--T", str(T), "--seed",
            str(seed), "-o", os.path.join(in_dir, f"{key}.csv")]


def op_argv(workload, op, in_dir, out_dir):
    key, args, outputs = WORKLOADS[workload][op]
    args = [a.format(out=out_dir) for a in args]
    return [args[0], "--in", os.path.join(in_dir, f"{key}.csv"), "--sample-rate", FS,
            "-o", os.path.join(out_dir, outputs[0])] + args[1:]


def spawn(argv, env, log_path):
    """Run one child to completion: wall s, CPU s, peak RSS MiB, exit code."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def specdep_cmd(argv):
    return [sys.executable, "-m", "specdep.cli"] + argv


def read_series(path):
    x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return MultiChannelSeries(x, float(FS))


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_op(workload, op, in_dir, out_dir):
    """None if the op's outputs hold their invariants and planted structure,
    else a message.  Sizes are the workload's full ones."""
    key, _, outputs = WORKLOADS[workload][op]
    paths = [os.path.join(out_dir, o) for o in outputs]
    P = FILES[key][1]
    if op in ("coherence", "pcoh"):
        a = _table(paths[0])
        if a.shape != (T * P * P, 5):
            return f"table shape {a.shape} != {(T * P * P, 5)}"
        diag = a[a[:, 2] == a[:, 3], 4]
        if np.max(np.abs(diag - 1.0)) > 0:
            return "diagonal is not exactly 1"
        return unit_interval(a[:, 4], op)
    if op == "spectrum":
        a = _table(paths[0])
        if a.shape != (T * P * P, 6):
            return f"table shape {a.shape} != {(T * P * P, 6)}"
        re, im = a[:, 4].reshape(T, P, P), a[:, 5].reshape(T, P, P)
        tol = 1e-12 * np.max(np.abs(re))
        if (np.max(np.abs(re - re.transpose(0, 2, 1))) > tol
                or np.max(np.abs(im + im.transpose(0, 2, 1))) > tol):
            return "spectral matrix is not Hermitian"
        if np.min(np.einsum("kpp->kp", re)) <= 0:
            return "non-positive auto-spectrum"
        return None
    if op == "tvcoh":
        a = _table(paths[0])
        N, step = TVCOH_WINDOW
        rows = len(range(0, T - N + 1, step)) * N * P * P
        if a.shape != (rows, 6):
            return f"table shape {a.shape} != {(rows, 6)}"
        return unit_interval(a[:, 5], op)
    if op == "spca":
        with open(paths[0]) as fh:
            ev = np.asarray(json.load(fh)["eigenvalues"])
        if np.min(ev) < -1e-12 * np.max(ev) or np.any(ev[:, 0] < ev[:, 1]):
            return "eigenvalues negative or out of order"
        enc = _table(paths[1])
        if enc.shape != (T, 2):
            return f"encoded shape {enc.shape} != {(T, 2)}"
        ratios = band_peak_ratios(MultiChannelSeries(enc[:, :1], float(FS)))
        if not all(r > 3 for r in ratios):
            return f"first component band capture {ratios} (each > 3)"
        return None
    if op == "scau":
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return "no edges"
        for r in rows:
            lag, coef = int(r["lag"]), float(r["coefficient"])
            if not (1 <= lag <= 12 and np.isfinite(coef) and coef != 0.0
                    and {r["from_band"], r["to_band"]} <= {"delta", "beta", "gamma"}
                    and 0 <= int(r["from_channel"]) < P and 0 <= int(r["to_channel"]) < P):
                return f"malformed edge {r}"
        return None
    if op == "var-fit":
        with open(paths[0]) as fh:
            model = model_from_json(json.load(fh))
        if (model.n_channels, model.order) != (P, 15):
            return f"model shape P={model.n_channels}, L={model.order}"
        series = read_series(os.path.join(in_dir, f"{key}.csv"))
        kkt = lasso_kkt_residual(series, 15, 0.05, model)
        return None if kkt < 1e-5 else f"LASSO KKT residual {kkt:.1e} (>= 1e-5)"
    if op == "pdc":
        with open(paths[0]) as fh:
            doc = json.load(fh)
        v = np.asarray(doc["pdc"])
        dev = float(np.max(np.abs(v.sum(axis=1) - 1.0)))
        if dev >= 1e-10:
            return f"PDC column sums deviate by {dev:.1e} (>= 1e-10)"
        with open(os.path.join(in_dir, f"{key}.truth.json")) as fh:
            truth = json.load(fh)
        want = {(q, p) for q, p, _ in truth["edges"]} | {(c, c) for c in truth["self_edges"]}
        missing = want - {tuple(e) for e in doc["edges"]}
        if missing:
            return f"planted edges {sorted(missing)} not recovered"
        return unit_interval(v, op)
    if op == "pac":
        with open(paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 2 * 2 * P:
            return f"{len(rows)} rows != {2 * 2 * P}"
        return unit_interval([float(r["MI"]) for r in rows], op)
    raise KeyError(op)


def run_in_process(argv):
    """Run one specdep CLI command in this process (canary inputs)."""
    rc = specdep.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"specdep {' '.join(argv)} exited {rc}")
