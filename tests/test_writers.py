"""The table and JSON writers against the writers they replaced.

``reference_table_to_csv`` is the ``csv.writer`` implementation that
``core.table_to_csv`` replaced, kept verbatim, and
``reference_frequency_table_to_csv`` is the per-frequency writer that
formatted every row through it, kept verbatim on top of it.
``reference_write_json`` is plain ``json.dump``, handed documents with every
numpy array turned into lists by ``listed``.  The library writers must
produce the same bytes on any input, and on whole CLI outputs.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specdep import cli, dualfreq, pac, spectrum, var
from specdep.core import (_ARRAY_MARK, TABLE_CHUNK_ROWS, FrequencyGrid,
                          frequency_table_to_csv, table_to_csv, write_json)


def reference_table_to_csv(path, header, columns):
    fmt = "{:.17g}".format
    cols = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    rows = math.prod(shape)
    for i, c in enumerate(cols):
        if c.dtype.kind == "f" and c.size < rows:
            c = np.array(list(map(fmt, c.ravel().tolist())), dtype=object).reshape(c.shape)
        cols[i] = np.broadcast_to(c, shape)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for s in range(0, rows, TABLE_CHUNK_ROWS):
            cells = [c.flat[s:s + TABLE_CHUNK_ROWS].tolist() for c in cols]
            wr.writerows(zip(*[map(fmt, v) if c.dtype.kind == "f" else v
                               for c, v in zip(cols, cells)]))


def reference_frequency_table_to_csv(path, grid, fs, columns, u=None):
    chan = np.arange(next(iter(columns.values())).shape[-1])
    f = grid.frequencies[:, None, None]
    header = ["freq", "freq_hz", "p", "q", *columns]
    cols = [f, f * fs if fs else "", chan[:, None], chan, *columns.values()]
    if u is not None:
        header, cols = ["u", *header], [np.reshape(u, (-1, 1, 1, 1)), *cols]
    reference_table_to_csv(path, header, cols)


def reference_write_json(path, obj, indent=None):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent)


def listed(obj):
    """``obj`` with every numpy array in it replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(v) for v in obj]
    return obj


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324, 1 / 3]
labels = st.text(st.sampled_from(list('ab ,"\r\n')), max_size=4)


@st.composite
def tables(draw):
    """(header, columns): float, int and label columns broadcast against one shape."""
    shape = draw(st.sampled_from([(TABLE_CHUNK_ROWS - 1,), (TABLE_CHUNK_ROWS,),
                                  (1, TABLE_CHUNK_ROWS + 1)])
                 | st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    floats = draw(st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1))
    ints = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1))
    texts = draw(st.lists(labels, min_size=1))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        # each axis kept or collapsed to 1, leading axes possibly dropped
        sub = tuple(n if draw(st.booleans()) else 1 for n in shape)
        sub = sub[draw(st.integers(0, len(sub))):]
        pool = draw(st.sampled_from([floats, ints, texts]))
        columns.append(np.array(pool)[rng.integers(0, len(pool), sub)])
    return draw(st.lists(labels, min_size=len(columns), max_size=len(columns))), columns


MIRROR_FLOATS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300,
                 1 / 3, math.inf, -math.inf, math.nan]


@st.composite
def frequency_tables(draw, constants=False):
    """(grid, fs, columns, u): value columns whose w < 0 rows are their w > 0
    partners (even), the negated partners (odd), those mirrors with the sign
    of every zero flipped, or values of their own.  With ``constants``, some
    cells (p, q) of each column (the diagonal, or cells at random) hold one
    value at every w >= 0 row, and at every row of an "own" column: an odd
    column's w < 0 rows then hold its negation, and a flipped zero holds
    its other sign."""
    n = 2 * draw(st.integers(1, 6))
    P = draw(st.integers(1, 3))
    windows = draw(st.sampled_from([None, 1, 3]))
    fs = draw(st.sampled_from([None, 128.0, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lead = () if windows is None else (windows,)

    def values(m):
        pool = np.array(MIRROR_FLOATS)[rng.integers(0, len(MIRROR_FLOATS), (*lead, m, P, P))]
        return np.where(rng.random(pool.shape) < 0.5, pool, rng.standard_normal(pool.shape))

    columns = {}
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["even", "odd", "even, zeros flipped",
                                     "odd, zeros flipped", "own"]))
        half = values(n // 2 + 1)
        if constants:
            cells = draw(st.sampled_from([np.eye(P, dtype=bool), rng.random((P, P)) < 0.5]))
            c = draw(st.sampled_from([0.0, -0.0, 1.0, -2.5]))
            half[..., cells] = c
        partner = half[..., n // 2 - 1:0:-1, :, :]
        neg = -partner if kind.startswith("odd") else partner
        if kind.endswith("flipped"):
            neg = np.where(neg == 0, -neg, neg)
        if kind == "own":
            neg = values(n // 2 - 1)
            if constants:
                neg[..., cells] = c
        columns[f"c{i}"] = np.concatenate([neg, half], axis=-3)
    u = None if windows is None else np.array(MIRROR_FLOATS[:8])[rng.integers(0, 8, windows)]
    return FrequencyGrid(n), fs, columns, u


def odd_mirrored_table(n, P):
    """A spectrum's re and im columns on an n grid, as csm_to_csv passes them."""
    grid = FrequencyGrid(n)
    half = np.random.default_rng(1).standard_normal((n // 2 + 1, P, P, 2)) @ [1, 1j]
    v = grid.unfold(half)
    return grid, 128.0, {"re": v.real, "im": v.imag}, None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frequency_tables() | frequency_tables(constants=True))
@example(odd_mirrored_table(2 * TABLE_CHUNK_ROWS, 2))  # blocks span several chunks
def test_frequency_table_bytes_match_row_writer(tmp_path_factory, table):
    d = tmp_path_factory.getbasetemp()
    frequency_table_to_csv(d / "new.csv", *table)
    reference_frequency_table_to_csv(d / "ref.csv", *table)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from(SPECIAL_FLOATS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=4),
    max_leaves=24)


# float, int and bool arrays of 0 to 3 dimensions, empty ones included
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
np_arrays = (hnp.arrays(np.float64, shapes, elements=st.floats() | st.sampled_from(SPECIAL_FLOATS))
             | hnp.arrays(np.int64, shapes) | hnp.arrays(np.bool_, shapes))
array_docs = st.recursive(
    np_arrays | st.none() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tables())
@example(([""], [np.array([1.0, -0.0])]))
@example((["x"], [np.array(["", "a"])]))
@example((["freq", "freq_hz", "p"], [np.array([[0.0], [0.5]]), np.array(""), np.arange(2)]))
@example((["i", "x"], [np.array([2 ** 63 - 1, -2 ** 63]), np.array([0.5, -0.0])]))  # not as floats
def test_table_bytes_match_csv_writer(tmp_path_factory, table):
    header, columns = table
    d = tmp_path_factory.getbasetemp()
    table_to_csv(d / "new.csv", header, columns)
    reference_table_to_csv(d / "ref.csv", header, columns)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(json_docs)
@example({"a": [], "b": [[1, [math.nan, -0.0]], [], [-math.inf]], "c": 'q"\\\n'})
@example({})
def test_json_bytes_match_json_dump(tmp_path_factory, doc):
    d = tmp_path_factory.getbasetemp()
    write_json(d / "new.json", doc)
    reference_write_json(d / "ref.json", doc)
    assert (d / "new.json").read_bytes() == (d / "ref.json").read_bytes()


@st.composite
def mirror_arrays(draw):
    """A float64 array whose rows [:n/2-1] along axis 0 are its rows n/2-1..
    mirrored (even), mirrored and negated (odd), those mirrors with the sign of
    every zero flipped, or values of their own; or one of odd or no length, a
    0-d one, a strided view of a complex array, or a float32, int or bool copy."""
    n = 2 * draw(st.integers(1, 6))
    trail = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def values(*shape):
        pool = np.array(MIRROR_FLOATS)[rng.integers(0, len(MIRROR_FLOATS), shape)]
        return np.where(rng.random(shape) < 0.5, pool, rng.standard_normal(shape))

    def mirrored(kind):
        half = values(n // 2 + 1, *trail)
        if kind.endswith("flipped"):  # a zero in a mirrored row, and no NaN
            half = np.nan_to_num(half, nan=0.5)
        if kind != "own" and half[1:-1].size:
            half[1:-1].flat[0] = math.nan if kind.endswith("row") else 0.0
        neg = half[n // 2 - 1:0:-1]
        neg = -neg if kind.startswith("odd") else neg
        if kind.endswith("flipped"):
            neg = np.where(neg == 0, -neg, neg)
        if kind == "own":
            neg = values(n // 2 - 1, *trail)
        return np.concatenate([neg, half])

    kinds = ["even", "odd", "even, zeros flipped", "odd, zeros flipped",
             "odd, NaN in a mirrored row", "own"]
    a = mirrored(draw(st.sampled_from(kinds)))
    form = draw(st.sampled_from(["as is"] * 4 + ["real", "imag", "odd n", "empty", "0-d",
                                               "float32", "int", "bool"]))
    if form in ("real", "imag"):  # a view with a stride of two floats
        c = np.empty(a.shape, complex)
        c.real = c.imag = mirrored(draw(st.sampled_from(kinds)))
        setattr(c, form, a)
        return getattr(c, form)
    if form == "odd n":
        return values(n - 1, *trail)
    if form == "empty":
        return values(0, *trail)
    if form == "0-d":
        return np.array(a.flat[0] if a.size else 0.5)
    if form == "float32":
        with np.errstate(over="ignore"):  # 1e300 becomes inf
            return a.astype(np.float32)
    if form == "int":
        return np.nan_to_num(a).clip(-1e18, 1e18).astype(np.int64)
    return a > 0 if form == "bool" else a


# arrays nested in dicts and lists, beside strings and keys that read as the mark
marks = st.sampled_from([_ARRAY_MARK, "x", None, 1.5])
keys = st.sampled_from([_ARRAY_MARK, "a", "b", "c"])
mirror_docs = st.dictionaries(
    keys, mirror_arrays() | marks | st.lists(mirror_arrays() | marks, max_size=2)
    | st.dictionaries(keys, mirror_arrays(), max_size=2), min_size=1, max_size=3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(array_docs | mirror_docs, st.sampled_from([None, 1]))
@example({"a": np.array([[math.nan, -0.0], [math.inf, -math.inf]]),
          "b": [np.zeros((0, 2)), np.array(True), {"c": np.arange(3)}]}, None)
@example(odd_mirrored_table(2 * TABLE_CHUNK_ROWS, 2)[2], None)  # {re, im}, several chunks
@example({_ARRAY_MARK: np.arange(4.0), "b": [_ARRAY_MARK, np.ones(2)]}, None)
def test_json_arrays_match_json_dump_of_lists(tmp_path_factory, doc, indent):
    d = tmp_path_factory.getbasetemp()
    write_json(d / "new.json", doc, indent=indent)
    reference_write_json(d / "ref.json", listed(doc), indent=indent)
    assert (d / "new.json").read_bytes() == (d / "ref.json").read_bytes()


@pytest.mark.parametrize("doc", [{"a": 1j}, [np.arange(2) + 0j], {"s": {1, 2}},
                                 np.array([object()], dtype=object)])
def test_json_rejects_what_json_cannot_encode(tmp_path, doc):
    with pytest.raises(TypeError):
        write_json(tmp_path / "o.json", doc)


def test_cli_outputs_match_reference_writers(tmp_path, monkeypatch):
    """Every JSON output, and the CSV outputs of coherence, pcoh, spectrum, tvcoh
    --partial, tvpdc, spca --encode, pdc --plot-data, scau, filter, dualfreq
    and pac, are what the old writers wrote.  The dualfreq and pac tables mix
    labels, ints and floats."""
    for name, example_name in [("net", "pdc_net"), ("mix", "spca_mix"), ("pac", "pac")]:
        assert cli.main(["simulate", "--example", example_name, "--T", "1024", "--seed", "5",
                         "-o", str(tmp_path / f"{name}.csv")]) == 0

    def outputs(tag):
        out = tmp_path / tag
        out.mkdir()
        for argv in (["coherence", "--in", tmp_path / "net.csv", "-o", out / "coh.csv"],
                     ["tvcoh", "--in", tmp_path / "net.csv", "--window", "256:128",
                      "--partial", "-o", out / "tvcoh.csv"],
                     ["spca", "--in", tmp_path / "mix.csv", "-Q", "2",
                      "--encode", out / "enc.csv", "-o", out / "spca.json"],
                     ["pcoh", "--in", tmp_path / "net.csv", "-o", out / "pcoh.csv"],
                     ["spectrum", "--in", tmp_path / "net.csv", "--format", "json",
                      "-o", out / "csm.json"],
                     ["spectrum", "--in", tmp_path / "net.csv", "-o", out / "csm.csv"],
                     ["tvpdc", "--in", tmp_path / "net.csv", "--order", "2", "--window",
                      "256:128", "-o", out / "tvpdc.csv"],
                     ["var-fit", "--in", tmp_path / "net.csv", "--method", "lasso",
                      "--order", "3", "-o", out / "var.json"],
                     ["pdc", "--in", tmp_path / "net.csv", "--order", "2", "--grid-size", "64",
                      "--plot-data", out / "pdc.csv", "-o", out / "pdc.json"],
                     ["scau", "--in", tmp_path / "net.csv", "--bands", "delta,beta",
                      "--order", "2", "--model-out", out / "scau.json", "-o", out / "scau.csv"],
                     ["filter", "--in", tmp_path / "net.csv", "--band", "alpha",
                      "-o", out / "alpha.csv"],
                     ["dualfreq", "--in", tmp_path / "net.csv", "--pair", "0:2:1:40",
                      "--pair", "1:10.5:2:20", "--window", "64", "--centers", "300:700:100",
                      "-o", out / "df.csv"],
                     ["pac", "--in", tmp_path / "pac.csv", "--low", "theta,alpha",
                      "--high", "beta,gamma", "-o", out / "mi.csv"]):
            assert cli.main([str(a) for a in argv] + ["--sample-rate", "128"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def reference_write_listed(path, obj, indent=None):
        reference_write_json(path, listed(obj), indent)

    new = outputs("new")
    for module in (cli, var, pac, dualfreq):
        monkeypatch.setattr(module, "table_to_csv", reference_table_to_csv)
    for module in (cli, spectrum):
        monkeypatch.setattr(module, "frequency_table_to_csv", reference_frequency_table_to_csv)
    monkeypatch.setattr(cli, "write_json", reference_write_listed)
    assert outputs("ref") == new
    assert len(new) == 16
