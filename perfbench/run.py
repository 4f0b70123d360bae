#!/usr/bin/env python3
"""Benchmark for specdep: end-to-end passes, checked outputs, a traced split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_spectral --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --smoke     # quick self-check

Each workload is a closed loop driven by one client: an op starts only when
the previous one has ended.  ``--trace 0`` runs as many timed passes as
fit in ``--seconds`` seconds (at least one) and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer split.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  perfbench/NOTES.md
says why each workload exists and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
WORKLOADS = ["cli_spectral", "cli_var", "lib_batch"]
SETUP_REPS = 3
IMPORT_PROBES = 3
CANARY_T = 2048
CANARY_SEED = 0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and one pass, lib_batch on 5 seeds")
    return ap.parse_args(argv)


def summarize(samples):
    """Median, quartiles and sample count of one metric's samples."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def summarize_passes(passes, key):
    """A pass total from per-unit medians: each op (or seed) gets the median
    of its times over the run's passes, and the medians are summed.  A slow
    stretch that hits one unit in one pass then drops out.  The quartiles
    are summed the same way; n is the number of passes."""
    per_unit = [summarize([p["units"][u][key] for p in passes]) for u in passes[0]["units"]]
    out = {q: sum(s[q] for s in per_unit) for q in ("median", "q1", "q3")}
    out["n"] = len(passes)
    return out


def more_passes(passes, args):
    """Timed runs start a pass only while it would, at the mean pass time so
    far, end within --seconds of passes, and make at least one; smoke and
    traced runs make exactly one.  Checking time is not counted."""
    if not passes:
        return True
    spent = sum(p["wall_s"] for p in passes)
    return not (args.smoke or args.trace) and spent * (len(passes) + 1) / len(passes) <= args.seconds


def environment(seeds, args):
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, stdin=subprocess.DEVNULL,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": commit, "workload_seeds": seeds, "seconds": args.seconds,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------- cli workloads

def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cli_setup(cw, workload, seed, in_dir, env):
    """Write the workload's input CSVs with `specdep simulate`; seconds taken."""
    _fresh(in_dir)
    t0 = time.perf_counter()
    for key in cw.inputs_of(workload):
        _, _, _, rc = cw.spawn(cw.specdep_cmd(cw.simulate_argv(key, seed, in_dir)), env,
                               os.path.join(in_dir, f"{key}.log"))
        if rc != 0:
            raise SystemExit(f"perfbench: set-up `specdep simulate` for {key} exited {rc}")
    return time.perf_counter() - t0


def cli_pass(cw, workload, in_dir, out_dir, env):
    """Every op once, each in a fresh interpreter."""
    _fresh(out_dir)
    ops = {}
    t0 = time.perf_counter()
    for op in cw.WORKLOADS[workload]:
        argv = cw.specdep_cmd(cw.op_argv(workload, op, in_dir, out_dir))
        wall, cpu, rss, rc = cw.spawn(argv, env, os.path.join(out_dir, f"{op}.log"))
        ops[op] = {"wall": wall, "cpu": cpu, "rss": rss, "rc": rc}
    return {"wall_s": time.perf_counter() - t0, "units": ops,
            "peak_rss_mb": max(o["rss"] for o in ops.values())}


def cli_check(cw, workload, res, in_dir, out_dir, known, checker):
    """Check every op of a pass: a full check the first time an output is
    seen, and byte equality with it on every later pass."""
    for op, o in res["units"].items():
        checker.attempt()
        if o["rc"] != 0:
            with open(os.path.join(out_dir, f"{op}.log"), errors="replace") as fh:
                checker.fail(op, f"exit {o['rc']}: {fh.read()[-300:]}")
            continue
        outs = [os.path.join(out_dir, f) for f in cw.WORKLOADS[workload][op][2]]
        d = _digest(outs)
        if op in known:
            if d != known[op]:
                checker.fail(op, "output differs from the first pass on the same input")
            continue
        try:
            fail = cw.check_op(workload, op, in_dir, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fail = f"unreadable output: {exc!r}"
        if fail:
            checker.fail(op, fail)
        else:
            known[op] = d


def cli_canary(cw, workload, base):
    """Fingerprints of every op's outputs on small fixed-seed inputs."""
    from checks import fingerprint_file
    in_dir, out_dir = _fresh(os.path.join(base, "canary_in")), _fresh(os.path.join(base, "canary_out"))
    for key in cw.inputs_of(workload):
        cw.run_in_process(cw.simulate_argv(key, CANARY_SEED, in_dir, T=CANARY_T))
    out = {}
    for op in cw.WORKLOADS[workload]:
        try:
            cw.run_in_process(cw.op_argv(workload, op, in_dir, out_dir))
            out[op] = {f: fingerprint_file(os.path.join(out_dir, f))
                       for f in cw.WORKLOADS[workload][op][2]}
        except (RuntimeError, OSError, ValueError) as exc:
            out[op] = repr(exc)
    return out


def run_cli(workload, args, checker):
    import cli_workload as cw
    base = _fresh(os.path.join(WORK, workload))
    env = dict(os.environ, PYTHONPATH=SRC)
    in_dir, out_dir = os.path.join(base, "in"), os.path.join(base, "out")
    reps = 1 if args.smoke or args.trace else SETUP_REPS
    setups = [cli_setup(cw, workload, args.seed, in_dir, env) for _ in range(reps)]
    known = {}
    passes = []
    while more_passes(passes, args):
        passes.append(cli_pass(cw, workload, in_dir, out_dir, env))
        cli_check(cw, workload, passes[-1], in_dir, out_dir, known, checker)
    io = cli_io(cw, workload, in_dir, out_dir)
    traced = cli_traced(cw, workload, args.seed, base, env, known, checker) if args.trace else None
    compare_canary(cli_canary(cw, workload, base), workload, checker)
    shutil.rmtree(base, ignore_errors=True)
    return setups, passes, io, traced


def cli_io(cw, workload, in_dir, out_dir):
    """Bytes read and written and CSV rows written by one pass."""
    read = written = rows = 0
    for op, (key, _, outputs) in cw.WORKLOADS[workload].items():
        read += os.path.getsize(os.path.join(in_dir, f"{key}.csv"))
        for f in outputs:
            p = os.path.join(out_dir, f)
            written += os.path.getsize(p)
            if f.endswith(".csv"):
                with open(p, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return {"cli.bytes_read": read, "cli.bytes_written": written, "cli.rows_written": rows}


def _traced_child(argv, spans, env, log):
    """One traced child; returns its span document and its traced wall time
    (the parent-measured wall minus the child's post-processing)."""
    import cli_workload as cw
    cmd = [sys.executable, os.path.join(HERE, "tracing.py"), spans] + argv
    wall, _, _, rc = cw.spawn(cmd, env, log)
    with open(log) as fh:
        lines = fh.read().strip().splitlines()
    if rc != 0 or not lines:
        raise SystemExit(f"perfbench: traced child {argv[:3]} exited {rc}: {lines[-3:]}")
    with open(spans) as fh:
        doc = json.load(fh)
    return doc, wall - json.loads(lines[-1])["post_s"]


def cli_traced(cw, workload, seed, base, env, known, checker):
    """Replay the set-up and one pass through specdep.cli.main(argv) in fresh
    traced interpreters."""
    tin, tout = _fresh(os.path.join(base, "traced_in")), _fresh(os.path.join(base, "traced_out"))
    setup_docs = []
    for key in cw.inputs_of(workload):
        doc, _ = _traced_child(["cli"] + cw.simulate_argv(key, seed, tin),
                               os.path.join(tin, f"{key}.spans.json"), env,
                               os.path.join(tin, f"{key}.log"))
        setup_docs.append(doc)
    docs, wall = [], 0.0
    for op in cw.WORKLOADS[workload]:
        doc, w = _traced_child(["cli"] + cw.op_argv(workload, op, tin, tout),
                               os.path.join(tout, f"{op}.spans.json"), env,
                               os.path.join(tout, f"{op}.log"))
        docs.append(doc)
        wall += w
        checker.attempt()
        outs = [os.path.join(tout, f) for f in cw.WORKLOADS[workload][op][2]]
        if doc["rc"] != 0 or _digest(outs) != known.get(op):
            checker.fail(op, "traced replay output differs from the untraced pass")
    return {"docs": docs, "setup_docs": setup_docs, "wall_s": wall}


# ---------------------------------------------------------------- lib workload

SETUP_PROBE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lib_workload
lib_workload.warm_up()
print(time.perf_counter() - t0)
"""


def lib_setup(env):
    """`import specdep` plus the warm-up seed in a fresh interpreter; seconds."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, HERE], env=env,
                         stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: lib_batch set-up probe failed: {out.stderr[-500:]}")
    return float(out.stdout.strip().splitlines()[-1])


def run_lib(args, checker, warm):
    import lib_workload as lw
    n_seeds = 5 if args.smoke else lw.N_SEEDS
    seeds = lw.seeds_for(args.seed, n_seeds)
    env = dict(os.environ, PYTHONPATH=SRC)
    reps = 1 if args.smoke or args.trace else SETUP_REPS
    setups = [lib_setup(env) for _ in range(reps)]
    passes = []
    first = None  # per-seed digests of the first pass
    while more_passes(passes, args):
        batch = lw.BatchCheck(checker) if first is None else None
        digests, units = [], {}
        for s in seeds:
            ru0, t2 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            result = lw.run_seed(s)
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            units[s] = {"wall": time.perf_counter() - t2,
                        "cpu": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)}
            digests.append(lw.digest(result))
            if batch:
                batch.add(result)
        passes.append({"wall_s": sum(u["wall"] for u in units.values()), "units": units,
                       # the process high-water mark, which includes set-up
                       "peak_rss_mb": ru1.ru_maxrss / 1024.0})
        if batch:
            batch.finish()
            first = digests
        else:
            checker.attempt(len(seeds) * len(lw.OPS))
            for s, d, f in zip(seeds, digests, first):
                if d != f:
                    checker.fail(f"lib_batch seed {s}", "results differ from the first pass",
                                 count=len(lw.OPS))
    # A run usually holds one pass, so the first seed is also run once more,
    # untimed, to check that the same input gives the same result.
    checker.attempt(len(lw.OPS))
    if lw.digest(lw.run_seed(seeds[0])) != first[0]:
        checker.fail(f"lib_batch seed {seeds[0]}", "results differ on a repeat run",
                     count=len(lw.OPS))
    traced = None
    if args.trace:
        base = _fresh(os.path.join(WORK, "lib_batch"))
        spans = os.path.join(base, "lib.spans.json")
        doc, _ = _traced_child(["lib", str(args.seed), str(n_seeds)], spans, env,
                               os.path.join(base, "lib.log"))
        root = next(s for s in doc["spans"] if s[0] == "bench.lib_pass")
        checker.attempt()
        if doc["digests"] != first:
            checker.fail("lib_batch", "traced pass results differ from the untraced pass")
        traced = {"docs": [doc], "setup_docs": [], "wall_s": root[4] - root[3]}
        shutil.rmtree(base, ignore_errors=True)
    compare_canary(lib_canary(warm), "lib_batch", checker)
    return setups, passes, {}, traced, seeds


def lib_canary(warm):
    import lib_workload as lw
    from checks import stats
    return {op: (repr(r) if isinstance(r, Exception) else {"result": {"numbers": stats(lw.numbers(r))}})
            for op, r in warm.items()}


# ---------------------------------------------------------------- canary, trace

def compare_canary(got, workload, checker):
    from checks import compare
    with open(FINGERPRINTS) as fh:
        ref = json.load(fh)[workload]
    for op, fp in ref.items():
        checker.attempt()
        g = got.get(op)
        if not isinstance(g, dict):
            checker.fail(f"canary {op}", f"failed: {g}")
            continue
        bad = [m for f in fp for m in compare(g.get(f, {}), fp[f], f"canary {op}/{f}")]
        if bad:
            checker.fail(f"canary {op}", "; ".join(bad[:3]))


def import_probe(env):
    """Cumulative import times of specdep, numpy and scipy.signal, in seconds,
    from `python -X importtime -c 'import specdep'` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import specdep"],
                         env=env, stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: import probe failed: {out.stderr[-500:]}")
    cum = {}
    for ln in out.stderr.splitlines():
        parts = ln.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"import.specdep_s": cum.get("specdep", 0.0), "import.numpy_s": cum.get("numpy", 0.0),
            "import.scipy_signal_s": cum.get("scipy.signal", 0.0)}


def per_layer(workload, passes, io, traced):
    """Every per-layer metric of BENCHMARK.json from one traced run."""
    import cli_workload as cw
    from tracing import LAYERS, aggregate
    env = dict(os.environ, PYTHONPATH=SRC)
    layers, named, fits, calls = aggregate(traced["docs"])
    if traced["setup_docs"]:
        layers["simulate"] = aggregate(traced["setup_docs"])[0]["simulate"]
    m = {}
    for layer in LAYERS:
        for key, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count")):
            m[f"{layer}.{key}"] = (layers[layer][key], unit)
    probes = [import_probe(env) for _ in range(IMPORT_PROBES)]
    for key in probes[0]:
        m[key] = (statistics.median(p[key] for p in probes), "s")
    # the listed cli_spectral subcommands, plus the run's own ones (cli_var)
    ops = cw.WORKLOADS.get(workload, {})
    for sub in dict.fromkeys([*cw.WORKLOADS["cli_spectral"], *ops]):
        m[f"cli.{sub}.wall_s"] = (passes[0]["units"][sub]["wall"] if sub in ops else 0.0, "s")
    m["cli.read_s"] = (named["cli.read"], "s")
    for key in ("cli.bytes_read", "cli.bytes_written", "cli.rows_written"):
        m[key] = (io.get(key, 0), "bytes" if "bytes" in key else "count")
    counters = {k: sum(d["counters"][k] for d in traced["docs"]) for k in traced["docs"][0]["counters"]}
    m.update({
        "var.lasso_s": (named["var.fit_lasso"], "s"),
        "var.ols_s": (named["var.fit_ols"], "s"),
        "var.pdc_s": (named["var.pdc"], "s"),
        "var.fits": (fits, "count"),
        "var.lasso_coefs": (counters["var.lasso_coefs"], "count"),
        "var.kkt_max": (max(d["kkt_max"] for d in traced["docs"]), "1"),
        "spca.fit_s": (named["spca.spca_fit"], "s"),
        "spca.encode_s": (named["spca.spca_encode"], "s"),
        "spca.eigh_problems": (counters["spca.eigh_problems"], "count"),
        "spca.degenerate_freqs": (counters["spca.degenerate_freqs"], "count"),
        "filters.designs": (counters["filters.designs"], "count"),
        "filters.distinct_designs": (sum(d["distinct_designs"] for d in traced["docs"]), "count"),
        "filters.samples_filtered": (counters["filters.samples_filtered"], "count"),
        "spectrum.fft_bytes": (counters["spectrum.fft_bytes"], "bytes"),
        "coherence.windows": (counters["coherence.windows"], "count"),
        "pac.mi_evals": (calls.get("pac.modulation_index", 0), "count"),
        "dualfreq.evals": (calls.get("dualfreq.dualfreq_coherence", 0), "count"),
        "trace.overhead_s": (traced["wall_s"] - passes[0]["wall_s"], "s"),
    })
    return m


# ---------------------------------------------------------------- entry point

def run_workload(workload, args, checker, warm):
    if workload == "lib_batch":
        setups, passes, io, traced, seeds = run_lib(args, checker, warm)
    else:
        setups, passes, io, traced = run_cli(workload, args, checker)
        seeds = [args.seed]
    if traced:
        return per_layer(workload, passes, io, traced), None, seeds
    summary = {"wall_s": summarize_passes(passes, "wall"), "cpu_s": summarize_passes(passes, "cpu"),
               "peak_rss_mb": summarize([p["peak_rss_mb"] for p in passes]),
               "setup_s": summarize(setups)}
    metrics = {k: (summary[k]["median"], unit) for k, unit in END_TO_END.items()}
    return metrics, summary, seeds


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "specdep", "__init__.py")):
        print(f"perfbench: no specdep sources at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import specdep
    import lib_workload
    if os.path.dirname(os.path.abspath(specdep.__file__)) != os.path.join(SRC, "specdep"):
        print(f"perfbench: imported specdep from {specdep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    warm = lib_workload.warm_up() if "lib_batch" in workloads else None
    from checks import Checker
    os.makedirs(WORK, exist_ok=True)
    checker = Checker()
    metrics, report = {}, {}
    for w in workloads:
        m, summary, seeds = run_workload(w, args, checker, warm)
        prefix = f"{w}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        report[w] = {"environment": environment(seeds, args), "trace": args.trace,
                     "summary": summary, "metrics": dict(m)}
        print(f"# workload {w}  seed {args.seed}  trace {args.trace}")
        print("# environment " + json.dumps(report[w]["environment"], sort_keys=True))
        if summary:
            print(f"# {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
            for k, s in summary.items():
                print(f"  {k:<14}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                      f"{s['n']:>4}  {END_TO_END[k]}")
        else:
            for k, (v, unit) in m.items():
                print(f"  {k:<34}{v:>16.6g}  {unit}")
    fail_ratio = checker.failed / max(checker.attempted, 1)
    print(f"# checks: attempted {checker.attempted}  failed {checker.failed}  "
          f"fail_ratio {fail_ratio:.4g}")
    for msg in checker.messages:
        print(f"# FAILED {msg}")
    with open(os.path.join(WORK, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"report": report, "attempted": checker.attempted, "failed": checker.failed,
                   "fail_ratio": fail_ratio, "failures": checker.messages}, fh, indent=1)
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
