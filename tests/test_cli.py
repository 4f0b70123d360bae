import csv
import gc
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


@pytest.fixture()
def dup_csv(tmp_path):
    """Two channels that differ by 1e-10 noise: an ill-conditioned spectrum."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    out = tmp_path / "dup.csv"
    cli.write_series_csv(MultiChannelSeries(
        np.column_stack([x, x + 1e-10 * rng.standard_normal(256)]), 128.0), out)
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

    def test_unknown_example_is_2(self, tmp_path, capsys):
        assert run(["simulate", "--example", "nosuch", "--T", "256", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specdep: invalid configuration: unknown example 'nosuch'; "
                              "choose from ['chirp', ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

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
        # but the header's rate is the series' own, a float
        run(["simulate", "--example", "chirp", "--T", "256", "--seed", "1",
             "--set", "fs=256", "-o", str(out)])
        text = (tmp_path / "x.truth.json").read_text()
        assert '"sample_rate_hz": 256.0,' in text
        assert list(json.loads(text))[:2] == ["name", "sample_rate_hz"]


    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-128"])
    def test_bad_rate_override(self, tmp_path, capsys, value):
        assert config_error(capsys, [
            "simulate", "--example", "chirp", "--T", "256", "--seed", "1",
            "--set", f"fs={value}", "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("name, setting", [
        ("gamma_net", "fs=0"), ("pdc_net", "fs=0"), ("chirp", "fs=0"),
        ("pac", "noise_var=-1"), ("lead_lag", "noise_std=-1"), ("lead_lag", "lag=2.5"),
        ("lagged_mixture", "lag=" + "1" * 30), ("instant_mixture", "weight=1e308"),
        ("chirp", "noise_std=1e308"), ("instant_mixture", "lag=5000"),
        ("pdc_net", "M=0.9")])
    def test_bad_override_range(self, tmp_path, capsys, name, setting):
        assert config_error(capsys, [
            "simulate", "--example", name, "--T", "256", "--seed", "1",
            "--set", setting, "-o", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("name, setting", [
        ("instant_mixture", "weight=1e308"), ("chirp", "noise_std=1e308")])
    def test_overflowing_override_prints_one_line(self, tmp_path, name, setting):
        # outside pytest numpy warnings are printed, not raised
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specdep.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "specdep.cli", "simulate", "--example", name, "--T", "256",
             "--seed", "0", "--set", setting, "-o", str(tmp_path / "x.csv")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("specdep: invalid configuration: ")
        assert proc.stderr.count("\n") == 1

    def test_negative_seed(self, tmp_path, capsys):
        assert config_error(capsys, [
            "simulate", "--example", "pac", "--T", "64", "--seed", "-1",
            "-o", str(tmp_path / "x.csv")]) == 2

    def test_memory_error_is_3(self, tmp_path, capsys, monkeypatch):
        def too_big(*args):
            raise MemoryError("Unable to allocate 745. GiB")
        monkeypatch.setattr(cli.sim, "example", too_big)
        assert run(["simulate", "--example", "pac", "--T", "100000000000", "--seed", "1",
                    "-o", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == "specdep: numerical failure: Unable to allocate 745. GiB\n"


class TestExitCodes:
    def test_missing_input_is_1(self, tmp_path):
        assert run(["coherence", "--in", str(tmp_path / "nope.csv"),
                    "--sample-rate", "128", "-o", str(tmp_path / "o.csv")]) == 1

    def test_malformed_csv_is_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert run(["coherence", "--in", str(bad), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("text", [b"a,\xffb\n1,2\n3,4\n", b"a,b\n1,2\n3,\xff4\n"],
                             ids=["header", "body"])
    def test_undecodable_input_is_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(text)
        assert run(["coherence", "--in", str(bad), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("specdep: malformed input: ") and "decode" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_field_over_csv_limit_is_1(self, tmp_path, capsys, where):
        # a long run of digits, which float() alone would read
        long = "1" * (csv.field_size_limit() + 1)
        bad = tmp_path / "bad.csv"
        bad.write_text(f"a,{long}\n1,2\n3,4\n" if where == "header" else f"a,b\n1,2\n3,{long}\n")
        assert run(["coherence", "--in", str(bad), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("specdep: malformed input: ") and "field limit" in err
        assert err.count("\n") == 1

    def test_invalid_config_is_2(self, tmp_path, net_csv):
        assert run(["filter", "--in", str(net_csv), "--sample-rate", "128",
                    "--band", "30:500", "-o", str(tmp_path / "o.csv")]) == 2

    def test_numerical_failure_is_3(self, tmp_path, dup_csv):
        assert run(["pcoh", "--in", str(dup_csv), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 3

    def test_ill_conditioned_pcoh_names_the_flag(self, tmp_path, capsys, dup_csv):
        assert run(["pcoh", "--in", str(dup_csv), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: spectral matrix ill-conditioned")
        assert "--shrink-order" in err
        assert err.count("\n") == 1

    def test_shrunk_ill_conditioned_pcoh_does_not_advise_the_flag(self, tmp_path, capsys,
                                                                  dup_csv):
        assert run(["pcoh", "--in", str(dup_csv), "--sample-rate", "128",
                    "--shrink-order", "2", "-o", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: spectral matrix ill-conditioned")
        assert "shrunk toward a VAR(2) spectrum is still ill-conditioned" in err
        assert "--shrink-order" not in err
        assert err.count("\n") == 1

    def test_constant_series_spca_is_3(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        cli.write_series_csv(MultiChannelSeries(np.ones((256, 2)), 128.0), p)
        assert run(["spca", "--in", str(p), "--sample-rate", "128", "-Q", "1",
                    "-o", str(tmp_path / "s.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: zero total power at every frequency")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("value", [0.1, np.pi])
    def test_inexact_constant_spca_is_3(self, tmp_path, capsys, value):
        # the computed mean of these constants is off by a rounding error
        p = tmp_path / "const.csv"
        cli.write_series_csv(MultiChannelSeries(np.full((256, 2), value), 128.0), p)
        assert run(["spca", "--in", str(p), "--sample-rate", "128", "-Q", "1",
                    "-o", str(tmp_path / "s.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: zero total power at every frequency")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [0.1, 1 / 3, np.pi, 1e-300])
    def test_constant_channel_lasso_is_3(self, tmp_path, capsys, value):
        x = np.random.default_rng(5).standard_normal((512, 3))
        x[:, 1] = value
        p = tmp_path / "const.csv"
        cli.write_series_csv(MultiChannelSeries(x, 128.0), p)
        assert run(["var-fit", "--in", str(p), "--sample-rate", "128", "--order", "2",
                    "--method", "lasso", "-o", str(tmp_path / "m.json")]) == 3
        assert capsys.readouterr().err == (
            "specdep: numerical failure: constant regressor column in LASSO fit\n")

    @pytest.mark.parametrize("value", [0.1, 1 / 3, np.pi, 1.0])
    def test_constant_series_dualfreq_is_3(self, tmp_path, capsys, value):
        # each trial is centred, so a constant has no local power at any frequency
        p = tmp_path / "const.csv"
        cli.write_series_csv(MultiChannelSeries(np.full((256, 2), value), 128.0), p)
        assert run(["dualfreq", "--in", str(p), "--sample-rate", "128", "--pair", "0:2:1:40",
                    "--window", "16", "-o", str(tmp_path / "d.csv")]) == 3
        assert capsys.readouterr().err == ("specdep: numerical failure: zero local power "
                                           "at one of the (channel, frequency) pairs\n")

    def test_ill_conditioned_tvcoh_partial_names_only_its_own_flags(self, tmp_path, capsys):
        # a 32-sample window smoothed over 3 bins gives rank-3 matrices in 4 channels
        net = tmp_path / "net.csv"
        assert run(["simulate", "--example", "pdc_net", "--T", "1024", "--seed", "1",
                    "-o", str(net)]) == 0
        assert run(["tvcoh", "--in", str(net), "--sample-rate", "128", "--window", "32:16",
                    "--partial", "-o", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: spectral matrix ill-conditioned")
        assert "--shrink-order" not in err and "--window" in err and "--bandwidth" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("op", [["coherence"], ["pcoh"], ["tvcoh", "--window", "128:64"],
                                    ["tvcoh", "--window", "128:64", "--partial"]])
    def test_channel_without_power_is_named_without_a_remedy(self, tmp_path, capsys, op):
        # no smoothing, shrinking or window length gives a constant channel power
        x = np.random.default_rng(8).standard_normal((512, 3))
        x[:, 1] = 0.25
        p = tmp_path / "const.csv"
        cli.write_series_csv(MultiChannelSeries(x, 128.0, ["a", "b", "c"]), p)
        assert run([op[0], "--in", str(p), "--sample-rate", "128", *op[1:],
                    "-o", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == ("specdep: numerical failure: zero auto-spectrum of "
                                           "channel 1 at every frequency: the channel has no "
                                           "power\n")

    def test_shrink_order_keeps_ill_conditioned_pcoh_at_3(self, tmp_path, capsys, dup_csv):
        assert run(["pcoh", "--in", str(dup_csv), "--sample-rate", "128", "--shrink-order", "2",
                    "-o", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("op", [
        ["coherence"], ["pcoh"], ["spectrum"], ["tvcoh", "--window", "200:100"],
        ["tvcoh", "--window", "200:100", "--partial"], ["spca", "-Q", "1"],
        ["dualfreq", "--pair", "0:2:1:40", "--window", "64"], ["var-fit", "--order", "2"],
        ["pdc", "--order", "2"], ["tvpdc", "--order", "2", "--window", "200:100"],
        ["scau", "--order", "2"]], ids=["coherence", "pcoh", "spectrum", "tvcoh", "tvcoh-partial",
                                         "spca", "dualfreq", "var-fit", "pdc", "tvpdc", "scau"])
    def test_floating_point_overflow_is_3(self, tmp_path, capsys, op):
        # squares of 1e200 overflow: one line and no file, not a numpy warning or nan rows
        p = tmp_path / "huge.csv"
        x = 1e200 * np.random.default_rng(0).standard_normal((600, 3))
        cli.write_series_csv(MultiChannelSeries(x, 128.0), p)
        out = tmp_path / "o.out"
        assert run([*op, "--in", str(p), "--sample-rate", "128", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("specdep: numerical failure: ") and err.count("\n") == 1
        assert err.endswith(" (a floating-point overflow or invalid operation; "
                            "the input's scale may be out of range)\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("a,b\r\n", "no data rows"),
        ("a,b\r\n1,2\r\n3\r\n", "row 3 has 1 fields, expected 2")])
    def test_unreadable_csv_is_1(self, tmp_path, capsys, text, message):
        p = tmp_path / "in.csv"
        p.write_text(text)
        assert run(["coherence", "--in", str(p), "--sample-rate", "128",
                    "-o", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"specdep: malformed input: {p}: {message}\n"

    # the decoder reads ahead, so the bad byte sits past its first buffer
    @pytest.mark.parametrize("head, message", [
        ("3,oops\n", "non-numeric value on row 3"),
        ("3\n4,oops\n", "row 3 has 1 fields, expected 2"),
        ("3,4\n", "'utf-8' codec can't decode byte 0xff")])
    def test_first_bad_row_is_reported(self, tmp_path, head, message):
        p = tmp_path / "in.csv"
        p.write_bytes(f"a,b\n1,2\n{head}".encode() + b"5,6\n" * 3000 + b"7,\xff8\n")
        with pytest.raises(cli.MalformedInputError) as exc:
            cli.read_series_csv(p, 128.0)
        assert str(exc.value).startswith(f"{p}: {message}")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("text, message", [
        (b'a,b\n"1",2\n3,4\n', None),
        (b"a,b\n1,2\n3,oops\n", "non-numeric value on row 3")])
    def test_pipe_input_is_read_once(self, text, message):
        # a pipe can be read only once, so the reader must not open it again
        r, w = os.pipe()
        os.write(w, text)
        os.close(w)
        path = f"/dev/fd/{r}"
        try:
            if message is None:
                series = cli.read_series_csv(path, 128.0)
                assert series.channel_labels == ["a", "b"]
                assert np.array_equal(series.samples, [[1.0, 2.0], [3.0, 4.0]])
            else:
                with pytest.raises(cli.MalformedInputError) as exc:
                    cli.read_series_csv(path, 128.0)
                assert str(exc.value) == f"{path}: {message}"
        finally:
            os.close(r)

    def test_override_without_value_is_2(self, tmp_path, capsys):
        assert run(["simulate", "--example", "pdc_net", "--T", "256", "--seed", "1",
                    "--set", "M", "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "specdep: invalid configuration: override must be key=value, got 'M'\n")
        assert not (tmp_path / "x.csv").exists()

    @staticmethod
    def write_error(capsys, argv, path):
        """Exit code of a run that must fail to write ``path`` with one line."""
        code = run(argv)
        err = capsys.readouterr().err
        assert err.startswith(f"specdep: invalid configuration: cannot write {path}: ")
        assert err.count("\n") == 1
        return code

    @pytest.mark.parametrize("cmd", [["coherence"], ["var-fit", "--order", "1"]])
    @pytest.mark.parametrize("target", ["missing/o.out", "dir"])
    def test_unwritable_output_is_2(self, tmp_path, net_csv, capsys, cmd, target):
        # a CSV and the JSON writer, into a missing directory or onto a directory
        out = tmp_path / target
        if target == "dir":
            out.mkdir()
        argv = [*cmd, "--in", str(net_csv), "--sample-rate", "128", "-o", str(out)]
        assert self.write_error(capsys, argv, out) == 2

    @pytest.mark.parametrize("csv_path, blocked", [("missing/x.csv", "missing/x.csv"),
                                                   ("x.csv", "x.truth.json")])
    def test_unwritable_simulate_output_is_2(self, tmp_path, capsys, csv_path, blocked):
        # the CSV into a missing directory, or a directory where the truth file goes
        if blocked.endswith(".json"):
            (tmp_path / blocked).mkdir()
        argv = ["simulate", "--example", "pdc_net", "--T", "256", "--seed", "1",
                "-o", str(tmp_path / csv_path)]
        assert self.write_error(capsys, argv, tmp_path / blocked) == 2


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

    @pytest.mark.parametrize("bands", ["delta,delta", "alpha,theta,alpha", "x:1:4,x:2:6",
                                       "delta,0.5:4"])
    def test_scau_repeated_band(self, tmp_path, net_csv, capsys, bands):
        assert config_error(capsys, [
            "scau", "--in", str(net_csv), "--sample-rate", "128", f"--bands={bands}",
            "-o", str(tmp_path / "o.csv")]) == 2

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
        ["dualfreq", "--window", "0", "--pair", "0:2:1:40"],
        ["dualfreq", "--window", "1", "--pair", "0:2:1:40"],
        ["tvcoh", "--window", "0:512"], ["tvcoh", "--window=-2:1"],
        ["tvpdc", "--window", "0:512", "--order", "2"],
        ["coherence", "--sample-rate", "0"], ["coherence", "--sample-rate", "-5"],
        ["coherence", "--sample-rate", "nan"],
        # rejected by the argument parser itself
        ["var-fit", "--order", "abc"], ["var-fit", "--method", "ridge"],
        ["coherence", "--bogus", "1"],
        ["dualfreq", "--window", "256", "--pair", "0:2:1:40", "--smooth", "-1:2"]])
    def test_config_values(self, tmp_path, net_csv, capsys, argv):
        assert config_error(capsys, [
            argv[0], "--in", str(net_csv), "--sample-rate", "128", *argv[1:],
            "-o", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_dualfreq_window_named(self, tmp_path, net_csv, capsys, window):
        """Without --smooth, a bad window is reported as the window, not as smoothing."""
        run(["dualfreq", "--in", str(net_csv), "--sample-rate", "128", "--window", window,
             "--pair", "0:2:1:40", "-o", str(tmp_path / "o.csv")])
        assert "window length must be even and >= 2" in capsys.readouterr().err

    def test_dualfreq_default_smoothing_named(self, tmp_path, capsys):
        """The default smoothing around the default centre leaves an 8192-sample
        series: the message names that centre and the smoothing, not a piece."""
        p = tmp_path / "net.csv"
        assert run(["simulate", "--example", "pdc_net", "--T", "8192", "--seed", "1",
                    "-o", str(p)]) == 0
        argv = ["dualfreq", "--in", str(p), "--sample-rate", "128", "--window", "1024",
                "--pair", "0:0.1:1:0.1", "-o", str(tmp_path / "o.csv")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("specdep: invalid configuration: ") and err.count("\n") == 1
        assert "centre t=4096" in err and "default smoothing (8 hops of N/2" in err
        assert run(argv + ["--smooth", "4:1024"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "centre t=4096 with smoothing (4, 1024)" in err
        assert run(argv + ["--smooth", "4:512"]) == 0

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

    @pytest.mark.parametrize("cmd", ["coherence", "pcoh", "spectrum", "spca"])
    def test_shrink_order(self, tmp_path, net_csv, cmd):
        out = tmp_path / f"{cmd}.out"
        extra = ["-Q", "2"] if cmd == "spca" else []
        assert run([cmd, "--in", str(net_csv), "--sample-rate", "128", "--shrink-order", "2",
                    *extra, "-o", str(out)]) == 0
        assert out.stat().st_size > 0

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
    def test_run_freezes_the_collector_and_main_does_not(self, tmp_path):
        argv = ["simulate", "--example", "pac", "--T", "256", "--seed", "1",
                "-o", str(tmp_path / "x.csv")]
        assert gc.get_freeze_count() == 0
        assert cli.main(argv) == 0
        assert gc.get_freeze_count() == 0
        try:
            assert cli.run(argv) == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_coherence_runs_only_the_modules_it_uses(self, tmp_path):
        src, out = tmp_path / "x.csv", tmp_path / "o.csv"
        np.savetxt(src, np.random.default_rng(0).standard_normal((256, 3)), delimiter=",",
                   header="a,b,c", comments="")
        code = ("import sys, types\n"
                "from specdep import cli\n"
                f"assert cli.main(['coherence', '--in', {str(src)!r}, '--sample-rate', '128',"
                f" '-o', {str(out)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('specdep.')"
                " and type(sys.modules[m]) is types.ModuleType))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specdep.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == str(
            ["specdep.cli", "specdep.coherence", "specdep.core", "specdep.spectrum"])

    def test_subprocess_help(self):
        proc = subprocess.run([sys.executable, "-m", "specdep.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    @pytest.mark.parametrize("argv", [[], ["coherence", "--in", "x.csv", "-o", "o.csv"]])
    def test_subprocess_parse_error_is_one_line(self, argv):
        # no subcommand; coherence without --sample-rate
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specdep.__file__)))
        proc = subprocess.run([sys.executable, "-m", "specdep.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("specdep: invalid configuration: ")
        assert proc.stderr.count("\n") == 1
        assert "usage:" not in proc.stderr + proc.stdout
