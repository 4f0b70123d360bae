"""Self-test of the benchmark: smoke runs pass, corrupted outputs fail.

Run from the root of a checkout (about two minutes)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import cli_workload as cw  # noqa: E402
import lib_workload as lw  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                         cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


def test_smoke_every_workload_passes_its_checks():
    rc, lines = _bench("--workload", "all", "--seed", "0", "--smoke")
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    want = {f"{w}.{m['name']}" for w in run.WORKLOADS for m in BENCH["end_to_end"]}
    assert set(result["metrics"]) == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    rc, lines = _bench("--workload", "lib_batch", "--seed", "0", "--smoke", "--trace", "1")
    assert rc == 0
    result = json.loads(lines[-1])
    assert result["correct"], lines
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["var.lasso_s"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, lines = _bench("--workload", "cli_var", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any(ln.startswith("{") for ln in lines)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A full-size pdc_net input and its coherence output."""
    d = str(tmp_path_factory.mktemp("cli"))
    cw.run_in_process(cw.simulate_argv("net", 0, d))
    cw.run_in_process(cw.op_argv("cli_spectral", "coherence", d, d))
    return d


def _rewrite_values(src, dst, edit):
    """Copy a tidy CSV, passing each row's last field through ``edit``."""
    with open(src) as fh:
        lines = fh.readlines()
    with open(dst, "w") as fh:
        fh.write(lines[0])
        for i, ln in enumerate(lines[1:]):
            fields = ln.rstrip("\n").split(",")
            fh.write(",".join(fields[:-1] + [edit(i, fields[-1])]) + "\n")


def test_corrupted_coherence_output_fails_its_check(cli_dir, tmp_path):
    assert cw.check_op("cli_spectral", "coherence", cli_dir, cli_dir) is None
    shutil.copy(os.path.join(cli_dir, "net.csv"), tmp_path)
    _rewrite_values(os.path.join(cli_dir, "coherence.csv"), tmp_path / "coherence.csv",
                    lambda i, v: "1.5" if i == 1 else v)
    fail = cw.check_op("cli_spectral", "coherence", str(tmp_path), str(tmp_path))
    assert "outside [0, 1]" in fail


def test_fingerprint_catches_a_corruption_the_invariants_miss(cli_dir, tmp_path):
    src = os.path.join(cli_dir, "coherence.csv")
    ref = checks.fingerprint_file(src)
    assert checks.compare(checks.fingerprint_file(src), ref, "coherence.csv") == []
    # shrink every off-diagonal coherence by 1%: still inside [0, 1]
    _rewrite_values(src, tmp_path / "coherence.csv",
                    lambda i, v: v if float(v) == 1.0 else repr(0.99 * float(v)))
    bad = checks.compare(checks.fingerprint_file(str(tmp_path / "coherence.csv")), ref,
                         "coherence.csv")
    assert any("value: sum" in m for m in bad)
    checker = checks.Checker()
    checker.attempt()
    checker.fail("coherence", bad[0])
    assert (checker.attempted, checker.failed) == (1, 1)


def test_canary_matches_the_recorded_fingerprints():
    checker = checks.Checker()
    run.compare_canary(run.lib_canary(lw.warm_up()), "lib_batch", checker)
    assert checker.attempted == len(lw.OPS) and checker.failed == 0, checker.messages


def _check_lib(results):
    checker = checks.Checker()
    batch = lw.BatchCheck(checker)
    for r in results:
        batch.add(r)
    batch.finish()
    return checker


def test_corrupted_lib_result_fails_its_check():
    results = lw.run_pass(lw.seeds_for(0, 1))
    checker = _check_lib(results)
    assert checker.failed == 0, checker.messages
    results[0]["pac.modulation_index"][0] = 1.5
    # the first classical PC misses a band: criterion 11 must reject it
    _, x = results[0]["spca_mix.spca"]
    results[0]["spca_mix.spca"] = (lw.pca_encode(x, lw.pca_fit(x, 1)), x)
    checker = _check_lib(results)
    assert checker.failed == 2, checker.messages
    assert any("pac.modulation_index" in m for m in checker.messages)
    assert any("spca_mix.spca" in m for m in checker.messages)
