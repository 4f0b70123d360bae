"""Byte format of every long-format CSV writer.

The expected bytes were recorded from the row-by-row ``csv.writer`` loops the
writers used before they shared one table writer; they pin the format:
CRLF line ends, quoting only where a field needs it, floats at 17
significant digits (``-0``, ``1e-300``), integers and labels as they are.
The tables are tiny and fixed, so no estimate or BLAS call is involved.
"""

import csv

import numpy as np
import pytest

from specdep import cli
from specdep.core import (TABLE_CHUNK_ROWS, Band, FrequencyGrid, MultiChannelSeries,
                          frequency_table_to_csv)
from specdep.dualfreq import DualFreqResult
from specdep.pac import mi_table_to_csv
from specdep.spectrum import CrossSpectralMatrix, csm_to_csv
from specdep.var import edges_to_csv

GRID = FrequencyGrid(2)
VALS = np.array([[[-0.0, 1e-300], [0.1, 1.0]], [[2.5, 1 / 3], [1e-300, -0.0]]])


def _csm(fs):
    v = np.empty((2, 2, 2), dtype=complex)
    v.real = [[[1.0, 0.1], [0.1, 0.25]], [[-0.0, 3.0], [3.0, 1e-300]]]
    v.imag = [[[0.0, 1e-300], [-1e-300, 0.0]], [[-0.0, 0.1], [-0.1, 0.0]]]
    return CrossSpectralMatrix(GRID, v, fs)


WRITERS = {
    "series": lambda p: cli.write_series_csv(MultiChannelSeries(
        [[-0.0, 1e-300], [0.1, 2.0], [3.0, -1.5]], 128.0, ["a,b", 'say "hi"']), p),
    "csm_fs": lambda p: csm_to_csv(_csm(0.1), p),
    "csm_nofs": lambda p: csm_to_csv(_csm(None), p),
    "mi": lambda p: mi_table_to_csv(
        p, np.array([[[-0.0, 1e-300]], [[0.1, 1.0]]]), [(0, 0), (1, 0)],
        [Band("a,b", 4, 8)], [Band("gamma", 30, 50), Band("hi", 60, 80)]),
    "dualfreq": lambda p: DualFreqResult([
        {"t": 100, "p": 0, "freq_j": 0.1, "q": 1, "freq_k": -0.0, "value": 1e-300},
        {"t": 300, "p": 1, "freq_j": 0.25, "q": 0, "freq_k": 1 / 3, "value": 0.1},
    ]).to_csv(p),
    "edges": lambda p: edges_to_csv([
        {"from_channel": 0, "from_band": "x,y", "to_channel": 1, "to_band": "beta",
         "lag": 2, "coefficient": -0.0},
        {"from_channel": 1, "from_band": "beta", "to_channel": 0, "to_band": "x,y",
         "lag": 1, "coefficient": 1e-300},
        {"from_channel": 1, "from_band": "beta", "to_channel": 1, "to_band": "beta",
         "lag": 3, "coefficient": 0.1},
    ], p),
    "matrix": lambda p: frequency_table_to_csv(p, GRID, 0.1, {"value": VALS}),
    "matrix_u": lambda p: frequency_table_to_csv(
        p, GRID, 0.1, {"value": np.stack([VALS, -VALS])}, np.array([0.1, 0.7])),
}

EXPECTED = {
    "series": (
        b'"a,b","say ""hi"""\r\n'
        b'-0,1e-300\r\n'
        b'0.10000000000000001,2\r\n'
        b'3,-1.5\r\n'
    ),
    "csm_fs": (
        b'freq,freq_hz,p,q,re,im\r\n'
        b'0,0,0,0,1,0\r\n'
        b'0,0,0,1,0.10000000000000001,1e-300\r\n'
        b'0,0,1,0,0.10000000000000001,-1e-300\r\n'
        b'0,0,1,1,0.25,0\r\n'
        b'0.5,0.050000000000000003,0,0,-0,-0\r\n'
        b'0.5,0.050000000000000003,0,1,3,0.10000000000000001\r\n'
        b'0.5,0.050000000000000003,1,0,3,-0.10000000000000001\r\n'
        b'0.5,0.050000000000000003,1,1,1e-300,0\r\n'
    ),
    "csm_nofs": (
        b'freq,freq_hz,p,q,re,im\r\n'
        b'0,,0,0,1,0\r\n'
        b'0,,0,1,0.10000000000000001,1e-300\r\n'
        b'0,,1,0,0.10000000000000001,-1e-300\r\n'
        b'0,,1,1,0.25,0\r\n'
        b'0.5,,0,0,-0,-0\r\n'
        b'0.5,,0,1,3,0.10000000000000001\r\n'
        b'0.5,,1,0,3,-0.10000000000000001\r\n'
        b'0.5,,1,1,1e-300,0\r\n'
    ),
    "mi": (
        b'low_band,high_band,channel_low,channel_high,MI\r\n'
        b'"a,b",gamma,0,0,-0\r\n'
        b'"a,b",hi,0,0,1e-300\r\n'
        b'"a,b",gamma,1,0,0.10000000000000001\r\n'
        b'"a,b",hi,1,0,1\r\n'
    ),
    "dualfreq": (
        b't,p,freq_j,q,freq_k,value\r\n'
        b'100,0,0.10000000000000001,1,-0,1e-300\r\n'
        b'300,1,0.25,0,0.33333333333333331,0.10000000000000001\r\n'
    ),
    "edges": (
        b'from_channel,from_band,to_channel,to_band,lag,coefficient\r\n'
        b'0,"x,y",1,beta,2,-0\r\n'
        b'1,beta,0,"x,y",1,1e-300\r\n'
        b'1,beta,1,beta,3,0.10000000000000001\r\n'
    ),
    "matrix": (
        b'freq,freq_hz,p,q,value\r\n'
        b'0,0,0,0,-0\r\n'
        b'0,0,0,1,1e-300\r\n'
        b'0,0,1,0,0.10000000000000001\r\n'
        b'0,0,1,1,1\r\n'
        b'0.5,0.050000000000000003,0,0,2.5\r\n'
        b'0.5,0.050000000000000003,0,1,0.33333333333333331\r\n'
        b'0.5,0.050000000000000003,1,0,1e-300\r\n'
        b'0.5,0.050000000000000003,1,1,-0\r\n'
    ),
    "matrix_u": (
        b'u,freq,freq_hz,p,q,value\r\n'
        b'0.10000000000000001,0,0,0,0,-0\r\n'
        b'0.10000000000000001,0,0,0,1,1e-300\r\n'
        b'0.10000000000000001,0,0,1,0,0.10000000000000001\r\n'
        b'0.10000000000000001,0,0,1,1,1\r\n'
        b'0.10000000000000001,0.5,0.050000000000000003,0,0,2.5\r\n'
        b'0.10000000000000001,0.5,0.050000000000000003,0,1,0.33333333333333331\r\n'
        b'0.10000000000000001,0.5,0.050000000000000003,1,0,1e-300\r\n'
        b'0.10000000000000001,0.5,0.050000000000000003,1,1,-0\r\n'
        b'0.69999999999999996,0,0,0,0,0\r\n'
        b'0.69999999999999996,0,0,0,1,-1e-300\r\n'
        b'0.69999999999999996,0,0,1,0,-0.10000000000000001\r\n'
        b'0.69999999999999996,0,0,1,1,-1\r\n'
        b'0.69999999999999996,0.5,0.050000000000000003,0,0,-2.5\r\n'
        b'0.69999999999999996,0.5,0.050000000000000003,0,1,-0.33333333333333331\r\n'
        b'0.69999999999999996,0.5,0.050000000000000003,1,0,-1e-300\r\n'
        b'0.69999999999999996,0.5,0.050000000000000003,1,1,0\r\n'
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_bytes(tmp_path, name):
    path = tmp_path / "t.csv"
    WRITERS[name](path)
    assert path.read_bytes() == EXPECTED[name]


def test_chunked_table_matches_row_loop(tmp_path):
    """A table spanning several chunks equals the row-by-row writer it replaced."""
    x = np.random.default_rng(0).standard_normal((2 * TABLE_CHUNK_ROWS + 3, 2))
    series = MultiChannelSeries(x, 128.0, ["a", "b,c"])
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(series.channel_labels)
        for row in x:
            wr.writerow([f"{v:.17g}" for v in row])
    out = tmp_path / "out.csv"
    cli.write_series_csv(series, out)
    assert out.read_bytes() == ref.read_bytes()
