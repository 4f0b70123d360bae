import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import specdep
from specdep import cli
from specdep.core import FrequencyGrid, MultiChannelSeries, band_by_name
from specdep.pac import modulation_index, pac_scan
from specdep.simulate import example
from specdep.var import fit_lassle, granger_edges, pdc


def run(args):
    return cli.main(args)


@pytest.fixture()
def net_csv(tmp_path):
    out = tmp_path / "net.csv"
    assert run(["simulate", "--example", "pdc_net", "--T", "4096",
                "--seed", "7", "-o", str(out)]) == 0
    return out


class TestSimulateCommand:
    def test_writes_csv_and_truth(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["simulate", "--example", "pdc_net", "--T", "512",
                    "--seed", "3", "-o", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["X1", "X2", "X3", "X4"]
        assert len(rows) == 513
        truth = json.loads((tmp_path / "x.truth.json").read_text())
        assert truth["name"] == "pdc_net"
        assert "aux" not in truth

    def test_csv_roundtrip_exact(self, tmp_path):
        out = tmp_path / "x.csv"
        run(["simulate", "--example", "gamma_net", "--T", "512", "--seed", "5",
             "-o", str(out)])
        series, _ = example("gamma_net", 512, 5)
        back = cli.read_series_csv(out, 128.0)
        assert np.array_equal(back.samples, series.samples)

    def test_overrides(self, tmp_path):
        out = tmp_path / "x.csv"
        run(["simulate", "--example", "chirp", "--T", "256", "--seed", "1",
             "--set", "f0_hz=3.5", "-o", str(out)])
        truth = json.loads((tmp_path / "x.truth.json").read_text())
        assert truth["f0_hz"] == 3.5
        # an integer literal stays an int in the truth file
        run(["simulate", "--example", "lagged_mixture", "--T", "256", "--seed", "1",
             "--set", "lag=3", "-o", str(out)])
        truth = json.loads((tmp_path / "x.truth.json").read_text())
        assert truth["lag"] == 3 and isinstance(truth["lag"], int)


    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-128"])
    def test_bad_rate_override(self, tmp_path, capsys, value):
        assert config_error(capsys, [
            "simulate", "--example", "chirp", "--T", "256", "--seed", "1",
            "--set", f"fs={value}", "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("name, setting", [
        ("gamma_net", "fs=0"), ("pdc_net", "fs=0"), ("chirp", "fs=0"),
        ("pac", "noise_var=-1"), ("lead_lag", "noise_std=-1"), ("lead_lag", "lag=2.5"),
        ("lagged_mixture", "lag=" + "1" * 30)])
    def test_bad_override_range(self, tmp_path, capsys, name, setting):
        assert config_error(capsys, [
            "simulate", "--example", name, "--T", "256", "--seed", "1",
            "--set", setting, "-o", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()


class TestExitCodes:
    def test_missing_input_is_1(self, tmp_path):
        assert run(["coherence", "--in", str(tmp_path / "nope.csv"),
                    "--sample-rate", "128", "-o", str(tmp_path / "o.csv")]) == 1

    def test_malformed_csv_is_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert run(["coherence", "--in", str(bad), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 1

    def test_invalid_config_is_2(self, tmp_path, net_csv):
        assert run(["filter", "--in", str(net_csv), "--sample-rate", "128",
                    "--band", "30:500", "-o", str(tmp_path / "o.csv")]) == 2

    def test_numerical_failure_is_3(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        dup = np.column_stack([x, x + 1e-10 * rng.standard_normal(256)])
        p = tmp_path / "dup.csv"
        cli.write_series_csv(MultiChannelSeries(dup, 128.0), p)
        assert run(["pcoh", "--in", str(p), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 3


def config_error(capsys, args):
    """Exit code and stderr of a run that must fail as a configuration error."""
    code = run(args)
    err = capsys.readouterr().err
    assert err.startswith("specdep: invalid configuration: ")
    assert err.count("\n") == 1
    return code


class TestBoundaryValidation:
    @pytest.mark.parametrize("channels", ["0,9", "-1,0", "0,0;1", "0,x"])
    def test_pac_channels(self, tmp_path, net_csv, capsys, channels):
        assert config_error(capsys, [
            "pac", "--in", str(net_csv), "--sample-rate", "128", "--low", "theta",
            "--high", "gamma", f"--channels={channels}", "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("channels", ["0,4", "-1", "0,,1", "0,0"])
    def test_scau_channels(self, tmp_path, net_csv, capsys, channels):
        assert config_error(capsys, [
            "scau", "--in", str(net_csv), "--sample-rate", "128", "--bands", "delta",
            f"--channels={channels}", "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--pair", "0:2:1"], ["--pair", "0:2:x:40"], ["--pair", "0:2:4:40"],
        ["--pair=-1:2:1:40"], ["--pair", "0:2:1:40", "--centers", "1024:3072"],
        ["--pair", "0:2:1:40", "--centers", "1024:3072:0"],
        ["--pair", "0:2:1:40", "--smooth", "4"], ["--pair", "0:2:1:40", "--smooth", "4:x"],
        ["--pair", "0:2:1:40", "--window", "64", "--centers", "10:20:5"],
        ["--pair", "0:2:1:40", "--centers", "300:301:1"]])
    def test_dualfreq_grammar(self, tmp_path, net_csv, capsys, flags):
        assert config_error(capsys, [
            "dualfreq", "--in", str(net_csv), "--sample-rate", "128", "--window", "256",
            *flags, "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["filter", "--band", "1:x"], ["filter", "--band", "alpha", "--order", "0"],
        ["var-fit", "--order", "-1", "--method", "lasso"],
        ["var-fit", "--order", "-1", "--method", "lassle"],
        ["var-fit", "--order", "2", "--method", "lasso", "--lambda=nan"],
        ["var-fit", "--order", "2", "--method", "lasso", "--lambda=inf"],
        ["spca", "-Q", "1", "--lags", "-1"],
        ["dualfreq", "--window", "256", "--pair", "0:200:1:40"],
        ["dualfreq", "--window", "256", "--pair", "0:-5:1:40"],
        ["filter", "--band", "0:64"],
        ["dualfreq", "--window", "256", "--pair", "0:2:1:40", "--centers", "1200:1100:1"],
        ["tvcoh", "--window", "0:512"], ["tvcoh", "--window=-2:1"],
        ["tvpdc", "--window", "0:512", "--order", "2"],
        ["coherence", "--sample-rate", "0"], ["coherence", "--sample-rate", "-5"],
        ["coherence", "--sample-rate", "nan"]])
    def test_config_values(self, tmp_path, net_csv, capsys, argv):
        assert config_error(capsys, [
            argv[0], "--in", str(net_csv), "--sample-rate", "128", *argv[1:],
            "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("method", ["ols", "lasso", "lassle"])
    def test_var_fit_interpolating_order(self, tmp_path, capsys, method):
        # 9 rows, 2 channels, order 3: 6 design rows against 6 regressors
        p = tmp_path / "short.csv"
        cli.write_series_csv(MultiChannelSeries(
            np.random.default_rng(1).standard_normal((9, 2)), 128.0), p)
        assert config_error(capsys, [
            "var-fit", "--in", str(p), "--sample-rate", "128", "--order", "3",
            "--method", method, "-o", str(tmp_path / "m.json")]) == 2

    def test_tvcoh_window_grammar(self, tmp_path, net_csv, capsys):
        assert config_error(capsys, [
            "tvcoh", "--in", str(net_csv), "--sample-rate", "128", "--window", "1024:x",
            "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("cmd", ["coherence", "spectrum"])
    def test_odd_length_series(self, tmp_path, capsys, cmd):
        p = tmp_path / "odd.csv"
        x = np.random.default_rng(3).standard_normal((255, 2))
        cli.write_series_csv(MultiChannelSeries(x, 128.0), p)
        assert config_error(capsys, [
            cmd, "--in", str(p), "--sample-rate", "128", "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("argv", [["pac", "--low", "theta", "--high", "gamma"],
                                      ["filter", "--band", "alpha"]])
    def test_series_too_short(self, tmp_path, capsys, argv):
        p = tmp_path / "short.csv"
        x = np.random.default_rng(4).standard_normal((8, 2))
        cli.write_series_csv(MultiChannelSeries(x, 128.0), p)
        assert config_error(capsys, [
            argv[0], "--in", str(p), "--sample-rate", "128", *argv[1:],
            "-o", str(tmp_path / "o.csv")]) == 2


class TestNoScipyOnImportPath:
    """scipy is only a test oracle: no import or command of specdep loads it."""

    def loaded_scipy(self, code):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specdep.__file__)))
        code += "\nimport sys; print([m for m in sys.modules if m.startswith('scipy')])"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_import(self):
        assert self.loaded_scipy("import specdep, specdep.cli") == "[]"

    def test_coherence_command(self, tmp_path):
        src, out = tmp_path / "x.csv", tmp_path / "o.csv"
        assert self.loaded_scipy(
            "import numpy as np\n"
            "from specdep import cli\n"
            "from specdep.core import MultiChannelSeries\n"
            "x = np.random.default_rng(0).standard_normal((256, 3))\n"
            f"cli.write_series_csv(MultiChannelSeries(x, 128.0), {str(src)!r})\n"
            f"assert cli.main(['coherence', '--in', {str(src)!r}, '--sample-rate', '128',"
            f" '-o', {str(out)!r}]) == 0") == "[]"
        assert out.exists()

    @pytest.mark.parametrize("name", ["spca_mix", "pdc_net"])
    def test_simulate_command(self, tmp_path, name):
        out = tmp_path / "x.csv"
        assert self.loaded_scipy(
            "from specdep import cli\n"
            f"assert cli.main(['simulate', '--example', {name!r}, '--T', '256',"
            f" '--seed', '0', '-o', {str(out)!r}]) == 0") == "[]"
        assert out.exists()

    def test_every_example(self):
        assert self.loaded_scipy(
            "import specdep\n"
            "from specdep.simulate import example_names\n"
            "for name in example_names():\n"
            "    specdep.example(name, 256, 0)") == "[]"


class TestFilterCommand:
    def test_matches_library(self, tmp_path, net_csv):
        out = tmp_path / "f.csv"
        assert run(["filter", "--in", str(net_csv), "--sample-rate", "128",
                    "--band", "alpha", "--order", "32", "-o", str(out)]) == 0
        from specdep.filters import apply_filter, design_fir_bandpass
        series = cli.read_series_csv(net_csv, 128.0)
        expect = apply_filter(design_fir_bandpass(band_by_name("alpha"), 32, 128.0),
                              series)
        got = cli.read_series_csv(out, 128.0)
        assert np.array_equal(got.samples, expect.samples)


class TestPdcCommand:
    def test_end_to_end_matches_library(self, tmp_path, net_csv):
        out = tmp_path / "pdc.json"
        plot = tmp_path / "pdc.csv"
        code = run(["pdc", "--in", str(net_csv), "--sample-rate", "128",
                    "--order", "2", "--method", "lassle", "--lambda", "0.1",
                    "--grid-size", "256", "-o", str(out),
                    "--plot-data", str(plot)])
        assert code == 0
        payload = json.loads(out.read_text())
        series = cli.read_series_csv(net_csv, 128.0)
        model = fit_lassle(series, 2, 0.1)
        res = pdc(model, FrequencyGrid(256))
        assert np.array_equal(np.asarray(payload["pdc"]), res.values)
        edges = granger_edges(model, 0.0)
        want = sorted([int(q), int(p)] for p, q in zip(*np.nonzero(edges)))
        assert sorted(payload["edges"]) == want
        assert plot.exists()
        truth = json.loads((net_csv.parent / "net.truth.json").read_text())
        got_edges = {tuple(e) for e in payload["edges"] if e[0] != e[1]}
        assert {(q, p) for q, p, _ in map(tuple, truth["edges"])} <= got_edges


class TestPacCommand:
    def test_bit_for_bit_passthrough(self, tmp_path):
        src = tmp_path / "pac.csv"
        run(["simulate", "--example", "pac", "--T", "4096", "--seed", "2",
             "-o", str(src)])
        out = tmp_path / "mi.csv"
        assert run(["pac", "--in", str(src), "--sample-rate", "128",
                    "--low", "theta", "--high", "gamma", "--bins", "18",
                    "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        series = cli.read_series_csv(src, 128.0)
        for row in rows:
            ch = int(row["channel_low"])
            direct = modulation_index(series, ch, band_by_name("theta"),
                                      ch, band_by_name("gamma"), 18)
            assert float(row["MI"]) == direct


class TestOtherCommands:
    def test_spectrum_csv(self, tmp_path, net_csv):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--in", str(net_csv), "--sample-rate", "128",
                    "--bandwidth", "16", "-o", str(out)]) == 0
        header = out.read_text().splitlines()[0].strip().split(",")
        assert header == ["freq", "freq_hz", "p", "q", "re", "im"]

    def test_coherence_and_pcoh(self, tmp_path, net_csv):
        for cmd in ("coherence", "pcoh"):
            out = tmp_path / f"{cmd}.csv"
            assert run([cmd, "--in", str(net_csv), "--sample-rate", "128",
                        "--bandwidth", "16", "-o", str(out)]) == 0
            row = next(csv.DictReader(out.read_text().splitlines()))
            assert 0.0 <= float(row["value"]) <= 1.0

    def test_tvcoh(self, tmp_path, net_csv):
        out = tmp_path / "tv.csv"
        assert run(["tvcoh", "--in", str(net_csv), "--sample-rate", "128",
                    "--window", "1024:1024", "--bandwidth", "16",
                    "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["u"] for r in rows} == {"0.125", "0.375", "0.625", "0.875"}

    def test_dualfreq(self, tmp_path, net_csv):
        out = tmp_path / "df.csv"
        assert run(["dualfreq", "--in", str(net_csv), "--sample-rate", "128",
                    "--pair", "0:2:1:40", "--window", "256",
                    "--smooth", "4:128", "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert 0.0 <= float(rows[0]["value"]) <= 1.0

    def test_var_fit_and_tvpdc(self, tmp_path, net_csv):
        model_out = tmp_path / "m.json"
        assert run(["var-fit", "--in", str(net_csv), "--sample-rate", "128",
                    "--order", "2", "--method", "ols", "-o", str(model_out)]) == 0
        payload = json.loads(model_out.read_text())
        assert payload["L"] == 2 and payload["P"] == 4
        out = tmp_path / "tvpdc.csv"
        assert run(["tvpdc", "--in", str(net_csv), "--sample-rate", "128",
                    "--window", "2048:2048", "--order", "2", "-o", str(out)]) == 0

    def test_scau(self, tmp_path):
        src = tmp_path / "ll.csv"
        run(["simulate", "--example", "lead_lag", "--T", "8192", "--seed", "61",
             "-o", str(src)])
        out = tmp_path / "edges.csv"
        assert run(["scau", "--in", str(src), "--sample-rate", "128",
                    "--bands", "delta", "--filter-order", "100", "--order", "12",
                    "--method", "lassle", "--lambda", "0.05",
                    "-o", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert any(r["from_channel"] == "0" and r["to_channel"] == "1" for r in rows)

    def test_spca(self, tmp_path):
        src = tmp_path / "mix.csv"
        run(["simulate", "--example", "spca_mix", "--T", "2048", "--seed", "9",
             "-o", str(src)])
        sol_out = tmp_path / "sol.json"
        enc_out = tmp_path / "enc.csv"
        assert run(["spca", "--in", str(src), "--sample-rate", "128", "-Q", "2",
                    "--lags", "128", "-o", str(sol_out),
                    "--encode", str(enc_out)]) == 0
        payload = json.loads(sol_out.read_text())
        assert payload["Q"] == 2
        enc = cli.read_series_csv(enc_out, 128.0)
        assert enc.n_channels == 2


class TestConsoleEntry:
    def test_subprocess_help(self):
        proc = subprocess.run([sys.executable, "-m", "specdep.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
