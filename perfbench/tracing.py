"""Span tracer for the specdep benchmark's traced runs.

Spans are recorded from the benchmark's own files: every public analysis
function of every ``specdep`` module is wrapped, and the wrapper is rebound
in each ``specdep`` module that holds the function by name (``apply_filter``
is bound separately in ``coherence``, ``pac``, ``var`` and ``dualfreq``), so
calls between modules are seen.  Nothing under ``src/`` is edited.
Serialisers (``*_csv``, ``*_json``, ``save_*``, ``load_*``) are left
unwrapped so that output writing stays in the calling CLI span.

Run as a script this file is the traced child process of a run::

    python3 perfbench/tracing.py SPANS.json cli <specdep argv...>
    python3 perfbench/tracing.py SPANS.json lib <seed> <n_seeds>

It records spans in memory and writes them to SPANS.json when it ends.
"""

import inspect
import json
import sys
import time
import types

LAYERS = ["import", "cli", "simulate", "core", "filters", "spectrum",
          "coherence", "dualfreq", "pac", "var", "spca"]
MODULES = LAYERS[2:] + ["cli"]
IO_MARKERS = ("_csv", "_json", "save_", "load_")
VAR_FITS = ("var.fit_ols", "var.fit_lasso", "var.fit_lassle")


class Tracer:
    """Spans as [name, layer, parent index, start, end], plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"filters.designs": 0, "filters.samples_filtered": 0,
                         "spectrum.fft_bytes": 0, "coherence.windows": 0,
                         "var.lasso_coefs": 0, "spca.eigh_problems": 0,
                         "spca.degenerate_freqs": 0}
        self.designs = set()
        self.lasso_fits = []

    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][4] = time.perf_counter()

    def count(self, name, args, result):
        """Work counters, read from a wrapped call's arguments and result."""
        c = self.counters
        if name == "filters.design_fir_bandpass":
            band, order, fs = args["band"], args["order"], args["sample_rate_hz"]
            c["filters.designs"] += 1
            # causal and zero-phase designs share their taps
            self.designs.add((band.low_hz, band.high_hz, int(order), float(fs)))
        elif name == "filters.apply_filter":
            s = args["series"]
            c["filters.samples_filtered"] += s.n_samples * s.n_channels
        elif name == "spectrum.fourier_coefficients":
            s = args["series"]
            # computed: float64 samples in, complex128 coefficients out
            c["spectrum.fft_bytes"] += s.n_samples * s.n_channels * (8 + 16)
        elif name in ("coherence.tv_coherence", "coherence.tv_partial_coherence"):
            c["coherence.windows"] += len(result.centers)
        elif name == "var.fit_lasso":
            c["var.lasso_coefs"] += result.order * result.n_channels ** 2
            self.lasso_fits.append((args["series"], args["L"], args["lam"], result))
        elif name == "spca.spca_fit":
            c["spca.eigh_problems"] += result.grid.n // 2 + 1
            c["spca.degenerate_freqs"] += len(result.degenerate_freqs)

    def kkt_max(self):
        """Largest LASSO KKT residual over the recorded fits (computed after
        the traced work, outside every span)."""
        from specdep.var import lasso_kkt_residual
        worst = 0.0
        for series, L, lam, model in self.lasso_fits:
            worst = max(worst, lasso_kkt_residual(series, L, lam, model))
        return worst

    def dump(self, path, extra):
        doc = dict(extra, spans=self.spans, counters=self.counters,
                   distinct_designs=len(self.designs))
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _wrap(tracer, fn, name, layer):
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count(name, bound.arguments, result)
        return result

    return traced


def install(tracer, callers=()):
    """Wrap every public specdep function; return a callable that undoes it.

    The wrappers are rebound in every specdep module and in ``callers``, the
    benchmark modules that imported specdep functions by name.
    """
    import specdep.cli  # noqa: F401  (loads every specdep module)
    mods = [sys.modules[f"specdep.{m}"] for m in MODULES]
    wrappers = {}
    for mod in mods:
        layer = mod.__name__.split(".")[1]
        if layer == "cli":
            fn = mod.read_series_csv
            wrappers[fn] = _wrap(tracer, fn, "cli.read", "cli.read")
            continue
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and not any(m in attr for m in IO_MARKERS)):
                wrappers[fn] = _wrap(tracer, fn, f"{layer}.{attr}", layer)
    undo = []
    for mod in mods + [sys.modules["specdep"]] + list(callers):
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                setattr(mod, attr, wrappers[val])
                undo.append((mod, attr, val))

    def restore():
        for mod, attr, val in undo:
            setattr(mod, attr, val)
    return restore


def aggregate(docs):
    """Per-layer busy/self time and call counts over the spans of ``docs``.

    busy_s is the time at least one span of the layer is open; self_s is the
    layer's span time minus the time its direct child spans cover.  The
    ``cli.read`` pseudo-layer is reported as cli.read_s and is not part of
    cli.self_s.  Also returns the busy time of a few named spans, the number
    of VAR fits not nested in another fit, and the call count of every span.
    """
    layers = {k: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for k in LAYERS}
    named = {"cli.read": 0.0, "var.fit_lasso": 0.0, "var.fit_ols": 0.0,
             "var.pdc": 0.0, "spca.spca_fit": 0.0, "spca.spca_encode": 0.0}
    fits = 0
    calls = {}
    for doc in docs:
        spans = doc["spans"]
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[2] >= 0:
                children[s[2]].append(i)
        for i, (name, layer, parent, t0, t1) in enumerate(spans):
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p])
                p = spans[p][2]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            if name in named and all(a[0] != name for a in ancestors):
                named[name] += dur
            if name in VAR_FITS and all(a[0] not in VAR_FITS for a in ancestors):
                fits += 1
            if layer not in layers:
                continue
            agg = layers[layer]
            agg["calls"] += 1
            agg["self_s"] += dur - sum(spans[j][4] - spans[j][3] for j in children[i])
            if all(a[1] != layer for a in ancestors):
                agg["busy_s"] += dur
    return layers, named, fits, calls


def _main(argv):
    path, kind = argv[0], argv[1]
    tracer = Tracer()
    extra = {}
    if kind == "cli":
        tracer.open(f"cli.{argv[2]}", "cli")
        tracer.open("import", "import")
        import specdep.cli
        tracer.close()
        restore = install(tracer)
        extra["rc"] = specdep.cli.main(argv[2:])
        tracer.close()
    else:
        tracer.open("import", "import")
        import specdep  # noqa: F401
        import lib_workload
        tracer.close()
        seeds = lib_workload.seeds_for(int(argv[2]), int(argv[3]))
        lib_workload.warm_up()
        restore = install(tracer, callers=[lib_workload])
        tracer.open("bench.lib_pass", "bench")
        results = lib_workload.run_pass(seeds)
        tracer.close()
        extra["digests"] = [lib_workload.digest(r) for r in results]
    restore()
    t_post = time.perf_counter()
    extra["kkt_max"] = tracer.kkt_max()
    tracer.dump(path, extra)
    # the parent subtracts this post-processing from the traced wall time
    print(json.dumps({"post_s": time.perf_counter() - t_post}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
