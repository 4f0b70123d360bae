"""Command-line front end.

Subcommands follow the library one-to-one and stay thin: parse and validate
the configuration, call the module function, write results.  CSV is the only
ingestion format (header row of channel labels, one row per sample); the
sampling rate is always an explicit flag.  Values are written at 17
significant digits so a round trip through disk is exact to 1e-12.

Exit codes: 0 success, 1 malformed input, 2 invalid configuration,
3 numerical failure, each failure with one diagnostic line on standard
error.  A floating-point overflow, invalid operation or division by zero
in numpy is a numerical failure too, not a warning, and its line adds that
the input's scale may be out of range.  A flag the parser
rejects (missing, unknown, mistyped, an invalid choice, no subcommand), a
negative --seed, an unknown --example (its line lists the known names) and
an output path that cannot be written are configuration errors; usage is
printed only for --help.

A process runs :func:`run`, the ``specdep`` console script and the
``__main__`` block: it calls :func:`main` and then freezes the garbage
collector, so that interpreter shutdown skips the objects the subcommand
left.  The library modules are imported as the package's lazy submodules,
so a subcommand compiles and runs only the modules it uses.
"""

import argparse
import csv as _csv
import gc
import math
import sys

import numpy as np

from . import dualfreq as df
from . import filters as flt
from . import pac as pacmod
from . import simulate as sim
from . import spca as spcamod
from . import spectrum as spec
from . import var as varmod
from .coherence import (coherence_matrix, estimate_spectrum, partial_coherence,
                        tv_coherence, tv_partial_coherence)
from .core import (Band, ConfigError, FrequencyGrid, MalformedInputError,
                   MultiChannelSeries, band_by_name, frequency_table_to_csv,
                   table_to_csv, write_json)


def write_series_csv(series, path):
    table_to_csv(path, series.channel_labels, series.samples.T)


def read_series_csv(path, sample_rate_hz):
    """The series in a CSV file: a header row of channel labels, one row per sample.

    ``csv`` parses each row and ``float`` each cell, in one pass over the
    file.  A file that cannot be read or decoded, that ``csv`` refuses, or
    that has no header or no data rows is a ``MalformedInputError``, and so
    is a row that is non-numeric or not as wide as the header, named by its
    number.
    """
    try:
        with open(path, newline="") as fh:
            rd = _csv.reader(fh)
            header = next(rd, None)
            if not header:
                raise MalformedInputError(f"{path}: empty file")
            rows = []
            for i, row in enumerate(rd):
                if not row:
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise MalformedInputError(f"{path}: non-numeric value on row {i + 2}")
                if len(rows[-1]) != len(header):
                    raise MalformedInputError(f"{path}: row {i + 2} has "
                                              f"{len(rows[-1])} fields, expected {len(header)}")
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}")
    except (UnicodeDecodeError, _csv.Error) as exc:
        raise MalformedInputError(f"{path}: {exc}")
    if not rows:
        raise MalformedInputError(f"{path}: no data rows")
    return MultiChannelSeries(np.asarray(rows), sample_rate_hz, header)


def parse_band(text):
    """'alpha', 'low:high', or 'name:low:high' -> Band."""
    parts = text.split(":")
    grammar = "band NAME, LOW:HIGH or NAME:LOW:HIGH"
    if len(parts) == 1:
        return band_by_name(text)
    if len(parts) == 2:
        return Band(f"{parts[0]}-{parts[1]}Hz", *_fields(text, grammar, (float, float)))
    return Band(*_fields(text, grammar, (str, float, float)))


def _fields(text, grammar, types, sep=":"):
    """Split text on sep into one field per entry of types, converted by it."""
    parts = text.split(sep)
    try:
        if len(parts) != len(types):
            raise ValueError
        return [t(v) for t, v in zip(types, parts)]
    except ValueError:
        raise ConfigError(f"expected {grammar}, got {text!r}") from None


def parse_window(text):
    return tuple(_fields(text, "window N:step", (int, int)))


def _parse_overrides(pairs):
    """KEY=VALUE pairs -> dict; integer literals stay int, the rest float."""
    out = {}
    for kv in pairs or []:
        if "=" not in kv:
            raise ConfigError(f"override must be key=value, got {kv!r}")
        k, v = kv.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            out[k] = _fields(v, f"a finite number for {k}", (float,))[0]
        if not math.isfinite(out[k]):
            raise ConfigError(f"expected a finite number for {k}, got {v!r}")
    return out


def _load(args):
    return read_series_csv(args.infile, args.sample_rate)


def _spectrum(args):
    """The input series and its spectral estimate under the smoothing flags."""
    x = _load(args)
    b = spec.default_bandwidth(x.n_samples) if args.bandwidth is None else args.bandwidth
    return x, estimate_spectrum(x, spec.SmoothingKernel(args.kernel, b), args.shrink_order)


def _fit(args):
    """The input series and its VAR fit, at the BIC order unless --order is set."""
    x = _load(args)
    L = varmod.select_order(x, args.select_max) if args.order is None else args.order
    return x, varmod.fit_var(x, L, args.method, args.lam)


def cmd_simulate(args):
    series, truth = sim.example(args.example, args.T, args.seed,
                                _parse_overrides(args.set))
    write_series_csv(series, args.out)
    truth = {k: v for k, v in truth.items() if k != "aux"}
    write_json(_truth_path(args.out), truth, indent=1)
    return 0


def _truth_path(out):
    return (out[:-4] if out.endswith(".csv") else out) + ".truth.json"


def cmd_filter(args):
    series = _load(args)
    band = parse_band(args.band)
    picks = [(c, band) for c in range(series.n_channels)]
    y, _ = flt.band_signals(series, picks, args.order, args.mode)
    write_series_csv(series.with_samples(y), args.out)
    return 0


def cmd_spectrum(args):
    _, f = _spectrum(args)
    if args.format == "json":
        write_json(args.out, spec.csm_to_json(f))
    else:
        spec.csm_to_csv(f, args.out)
    return 0


def _advised(exc, advice):
    """``exc`` with the library's advice to shrink, if it has one, replaced by ``advice``."""
    where, shrink, _ = str(exc).partition("; shrink")
    return ValueError(f"{where}; {advice}") if shrink else exc


def cmd_coherence(args, partial=False):
    series, f = _spectrum(args)
    try:
        vals = partial_coherence(f) if partial else coherence_matrix(f).values
    except ValueError as exc:
        raise _advised(exc, "shrink the estimate toward a VAR spectrum with --shrink-order"
                       if args.shrink_order is None else "the estimate shrunk toward a "
                       f"VAR({args.shrink_order}) spectrum is still ill-conditioned") from None
    frequency_table_to_csv(args.out, f.grid, series.sample_rate_hz, {"value": vals})
    return 0


def cmd_tvcoh(args):
    series = _load(args)
    N, step = parse_window(args.window)
    b = args.bandwidth
    kernel = None if b is None else spec.SmoothingKernel("daniell", b)
    try:
        res = (tv_partial_coherence if args.partial else tv_coherence)(series, N, step, kernel)
    except ValueError as exc:
        raise _advised(exc, "a longer --window or a wider --bandwidth may condition it") from None
    frequency_table_to_csv(args.out, res.grid, series.sample_rate_hz,
                           {"value": res.values}, res.centers)
    return 0


def cmd_dualfreq(args):
    series = _load(args)
    fs = series.sample_rate_hz
    pairs = []
    for txt in args.pair:
        p, fj, q, fk = _fields(txt, "--pair P:FJ_HZ:Q:FK_HZ", (int, float, int, float))
        if not (0 <= fj <= fs / 2 and 0 <= fk <= fs / 2):
            raise ConfigError(f"--pair {txt!r}: frequencies must lie in [0, {fs / 2}] Hz")
        pairs.append((p, fj / fs, q, fk / fs))
    centers = [series.n_samples // 2]
    if args.centers:
        a, b, step = _fields(args.centers, "--centers START:STOP:STEP", (int,) * 3)
        if step == 0:
            raise ConfigError("--centers STEP must be nonzero")
        centers = range(a, b, step)
    smoothing = (_fields(args.smooth, "--smooth HALF:HOP", (int, int))
                 if args.smooth else None)
    df.dualfreq_scan(series, centers, args.window, pairs, smoothing).to_csv(args.out)
    return 0


def cmd_pac(args):
    series = _load(args)
    low = [parse_band(b) for b in args.low.split(",")]
    high = [parse_band(b) for b in args.high.split(",")]
    pairs = [(c, c) for c in range(series.n_channels)]
    if args.channels:
        pairs = [tuple(_fields(pr, "--channels P,Q[;P,Q...]", (int, int), ","))
                 for pr in args.channels.split(";")]
    mi = pacmod.pac_scan(series, low, high, args.bins, pairs, args.filter_order)
    pacmod.mi_table_to_csv(args.out, mi, pairs, low, high)
    return 0


def cmd_var_fit(args):
    _, model = _fit(args)
    write_json(args.out, varmod.model_to_json(model))
    return 0


def cmd_pdc(args):
    series, model = _fit(args)
    grid = FrequencyGrid(args.grid_size)
    res = varmod.pdc(model, grid)
    edges = varmod.granger_edges(model, None if args.method == "ols" else 0.0)
    out = {
        "model": varmod.model_to_json(model),
        "frequencies": grid.frequencies,
        "pdc": res.values,
        "edges": np.argwhere(edges)[:, ::-1],
    }
    write_json(args.out, out)
    if args.plot_data:
        frequency_table_to_csv(args.plot_data, grid, series.sample_rate_hz,
                               {"value": res.values})
    return 0


def cmd_tvpdc(args):
    series = _load(args)
    N, step = parse_window(args.window)
    res = varmod.tv_pdc(series, args.order, N, step, args.method, args.lam)
    frequency_table_to_csv(args.out, res.grid, series.sample_rate_hz,
                           {"value": res.values}, res.centers)
    return 0


def cmd_scau(args):
    series = _load(args)
    bands = [parse_band(b) for b in args.bands.split(",")] if args.bands else None
    channels = None
    if args.channels:
        n = args.channels.count(",") + 1
        channels = _fields(args.channels, "--channels I[,J...]", (int,) * n, ",")
    model, edges = varmod.spectral_var(
        series, channels=channels, bands=bands, filter_order=args.filter_order,
        order=args.order, order_max=args.select_max, method=args.method, lam=args.lam)
    varmod.edges_to_csv(edges, args.out)
    if args.model_out:
        write_json(args.model_out, varmod.model_to_json(model))
    return 0


def cmd_spca(args):
    series, f = _spectrum(args)
    sol = spcamod.spca_fit(f, args.components, args.lags)
    write_json(args.out, spcamod.spca_to_json(sol))
    if args.encode:
        write_series_csv(spcamod.spca_encode(series, sol), args.encode)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections leave as ConfigError, not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _command(sub, name, func, help, needs_input=True):
    """Register subcommand name: its parser, the I/O flags and its handler."""
    p = sub.add_parser(name, help=help)
    if needs_input:
        p.add_argument("--in", dest="infile", required=True, help="input CSV")
        p.add_argument("--sample-rate", type=float, required=True,
                       help="sampling rate in Hz")
    p.add_argument("-o", "--out", required=True, help="output path")
    p.set_defaults(func=func)
    return p


def _add_smoothing(p):
    p.add_argument("--bandwidth", type=int, default=None,
                   help="smoothing half-width in grid bins (default T^0.6/8)")
    p.add_argument("--kernel", choices=["daniell", "triangular"], default="daniell")
    p.add_argument("--shrink-order", type=int, default=None,
                   help="shrink toward a VAR spectrum of this order")


def _add_var(p, default_method):
    """The VAR fit flags read by _fit and cmd_scau."""
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--select-max", type=int, default=8)
    p.add_argument("--method", choices=["ols", "lasso", "lassle"], default=default_method)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)


def build_parser():
    ap = _Parser(
        prog="specdep",
        description="Spectral dependence analyses for multivariate time series. "
                    "Bands are given as a name (delta, theta, alpha, beta, gamma) "
                    "or low:high in Hz; windows as N:step in samples.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "simulate", cmd_simulate, "generate a worked example dataset",
                 needs_input=False)
    p.add_argument("--example", required=True,
                   help="worked example name (an unknown name lists them)")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a generator parameter")

    p = _command(sub, "filter", cmd_filter, "band-pass filter every channel")
    p.add_argument("--band", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--mode", choices=["causal", "zero_phase"], default="zero_phase")

    p = _command(sub, "spectrum", cmd_spectrum, "estimate the cross-spectral matrix")
    _add_smoothing(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    _add_smoothing(_command(sub, "coherence", cmd_coherence,
                            "all-pairs coherence per frequency"))
    _add_smoothing(_command(sub, "pcoh", lambda a: cmd_coherence(a, partial=True),
                            "all-pairs partial coherence per frequency"))

    p = _command(sub, "tvcoh", cmd_tvcoh, "sliding-window (partial) coherence")
    p.add_argument("--window", required=True, metavar="N:STEP")
    p.add_argument("--bandwidth", type=int, default=None)
    p.add_argument("--partial", action="store_true")

    p = _command(sub, "dualfreq", cmd_dualfreq, "time-localized dual-frequency coherence")
    p.add_argument("--pair", action="append", required=True,
                   metavar="P:FJ_HZ:Q:FK_HZ")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--centers", default=None, metavar="START:STOP:STEP")
    p.add_argument("--smooth", default=None, metavar="HALF:HOP")

    p = _command(sub, "pac", cmd_pac, "phase-amplitude coupling (modulation index)")
    p.add_argument("--low", required=True, help="phase band(s), comma separated")
    p.add_argument("--high", required=True, help="amplitude band(s)")
    p.add_argument("--bins", type=int, default=18)
    p.add_argument("--channels", default=None,
                   help="phase,amp channel pairs like '0,0;0,1'")
    p.add_argument("--filter-order", type=int, default=None)

    _add_var(_command(sub, "var-fit", cmd_var_fit, "fit a VAR model"), "ols")

    p = _command(sub, "pdc", cmd_pdc, "partial directed coherence")
    _add_var(p, "lassle")
    p.add_argument("--grid-size", type=int, default=1024)
    p.add_argument("--plot-data", default=None, help="also write tidy CSV here")

    p = _command(sub, "tvpdc", cmd_tvpdc, "sliding-window PDC")
    p.add_argument("--window", required=True, metavar="N:STEP")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=["ols", "lassle"], default="ols")
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)

    p = _command(sub, "scau", cmd_scau, "band-to-band spectral-VAR causality")
    p.add_argument("--bands", default=None, help="comma-separated bands")
    p.add_argument("--channels", default=None, help="comma-separated indices")
    p.add_argument("--filter-order", type=int, default=100)
    _add_var(p, "lassle")
    p.add_argument("--model-out", default=None)

    p = _command(sub, "spca", cmd_spca, "spectral principal components")
    _add_smoothing(p)
    p.add_argument("-Q", "--components", type=int, required=True)
    p.add_argument("--lags", type=int, default=None)
    p.add_argument("--encode", default=None,
                   help="also write the encoded components to this CSV")

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except MalformedInputError as exc:
        print(f"specdep: malformed input: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"specdep: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # read_series_csv maps read errors, so this is an output path
        print(f"specdep: invalid configuration: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"specdep: numerical failure: {exc} (a floating-point overflow or invalid "
              "operation; the input's scale may be out of range)", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, varmod.LassoConvergenceError, ValueError,
            ZeroDivisionError, MemoryError) as exc:
        print(f"specdep: numerical failure: {exc}", file=sys.stderr)
        return 3


def run(argv=None):
    """The process entry point (``specdep`` and ``python -m specdep.cli``):
    ``main(argv)``, then every object left is frozen out of the collector, so
    that interpreter shutdown does not walk all that numpy and specdep made.
    ``main`` itself never freezes, for callers that go on running."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
