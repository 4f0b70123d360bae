import os
import subprocess
import sys

import numpy as np
import pytest

import specdep

from specdep.core import ConfigError, MultiChannelSeries, band_by_name
from specdep.pac import (analytic_signal, kl_divergence, modulation_index,
                         pac_scan, phase_amplitude_distribution)
from specdep.simulate import example

FS = 128.0
THETA = band_by_name("theta")
GAMMA = band_by_name("gamma")


class TestAnalyticSignal:
    def test_cosine_amplitude_and_phase(self):
        T, f = 2048, 8.0
        t = np.arange(T)
        x = np.cos(2 * np.pi * f * t / FS)
        y = analytic_signal(x)
        interior = slice(64, T - 64)
        assert np.max(np.abs(y.amplitude[interior] - 1.0)) < 1e-2
        dphi = np.diff(np.unwrap(np.angle(y.values)))[interior]
        assert np.max(np.abs(dphi - 2 * np.pi * f / FS)) < 1e-3

    def test_real_part_is_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        x -= x.mean()
        y = analytic_signal(x)
        assert np.max(np.abs(y.values.real - x)) < 1e-10

    def test_amplitude_dominates_signal(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1024)
        y = analytic_signal(x)
        assert np.all(y.amplitude >= np.abs(x) - 1e-8)

    def test_too_short(self):
        with pytest.raises(ConfigError):
            analytic_signal(np.zeros(8))

    @pytest.mark.parametrize("T", [8191, 8192, 17, 16])
    def test_matches_scipy_hilbert(self, T):
        hilbert = pytest.importorskip("scipy.signal").hilbert
        x = np.random.default_rng(T).standard_normal(T)
        assert np.max(np.abs(analytic_signal(x).values - hilbert(x))) < 1e-12


class TestPhaseAmplitudeDistribution:
    def test_constant_amplitude_uniform(self):
        rng = np.random.default_rng(2)
        phase = rng.random(20000) * 2 * np.pi
        dist = phase_amplitude_distribution(phase, np.full(20000, 3.3), 18)
        assert np.allclose(dist.probs, 1 / 18, atol=1e-12)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cosine_locked_shape(self):
        n = 18
        phase = np.linspace(0, 2 * np.pi, 400000, endpoint=False)
        amp = 1.0 + np.cos(phase)
        dist = phase_amplitude_distribution(phase, amp, n)
        # analytic bin means of 1 + cos over each bin
        edges = dist.bin_edges
        expect = np.diff(edges) + np.diff(np.sin(edges))
        expect /= expect.sum()
        assert np.max(np.abs(dist.probs - expect) / expect) < 0.05
        # away from the trough the bin-centre approximation also holds
        centers = 1.0 + np.cos(dist.bin_centers)
        centers /= centers.sum()
        big = centers > 0.02
        assert np.max(np.abs(dist.probs - centers)[big] / centers[big]) < 0.05

    def test_single_bin(self):
        dist = phase_amplitude_distribution(np.array([0.1, 2.0, 5.0]),
                                            np.array([1.0, 2.0, 3.0]), 1)
        assert np.allclose(dist.probs, [1.0])

    def test_empty_bin_errors(self):
        phase = np.full(100, 0.1)
        with pytest.raises(ValueError):
            phase_amplitude_distribution(phase, np.ones(100), 4)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            phase_amplitude_distribution(np.zeros(5), np.ones(6), 4)


class TestKlDivergence:
    def test_self_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_point_mass_vs_uniform(self):
        n = 12
        p = np.zeros(n)
        p[0] = 1.0
        u = np.full(n, 1 / n)
        assert kl_divergence(p, u) == pytest.approx(np.log(n))

    def test_hand_computed(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        expect = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
        assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestModulationIndex:
    def test_white_noise_null(self):
        vals = []
        for seed in range(7):
            rng = np.random.default_rng(seed)
            s = MultiChannelSeries(rng.standard_normal((2 ** 14, 1)), FS)
            vals.append(modulation_index(s, 0, THETA, 0, GAMMA))
        assert np.median(vals) < 0.01

    @pytest.mark.parametrize("cp, ca", [(-1, 0), (0, -1), (2, 0)])
    def test_channel_outside_range(self, cp, ca):
        s = MultiChannelSeries(np.random.default_rng(3).standard_normal((4096, 2)), FS)
        with pytest.raises(ConfigError, match="outside"):
            modulation_index(s, cp, THETA, ca, GAMMA)

    def test_pac_example_dominates_latents(self):
        for seed in range(5):
            s, t = example("pac", 2 ** 14, seed)
            aux = t["aux"]
            mi1 = modulation_index(s, 0, THETA, 0, GAMMA)
            mi2 = modulation_index(s, 1, THETA, 1, GAMMA)
            latents = aux["sources"]
            eps = MultiChannelSeries(aux["noise"], FS)
            null = max(modulation_index(latents, 0, THETA, 0, GAMMA),
                       modulation_index(latents, 1, THETA, 1, GAMMA),
                       modulation_index(eps, 0, THETA, 0, GAMMA),
                       modulation_index(eps, 1, THETA, 1, GAMMA))
            assert mi1 > 3 * null
            assert mi2 > 3 * null

    def test_cosine_locked_matches_analytic(self):
        # gamma carrier amplitude-locked to 1 + cos(theta phase)
        T = 2 ** 14
        t = np.arange(T)
        fl, fh = 5.9, 40.0
        ph = 2 * np.pi * fl * t / FS
        x = np.cos(ph) + (1.0 + np.cos(ph)) * np.cos(2 * np.pi * fh * t / FS)
        s = MultiChannelSeries(x[:, None], FS)
        n = 18
        # long filters keep the gamma passband flat across the AM sidebands
        mi = modulation_index(s, 0, THETA, 0, GAMMA, n_bins=n, filter_order=128)
        edges = 2 * np.pi * np.arange(n + 1) / n
        mass = np.diff(edges) + np.diff(np.sin(edges))
        mass /= mass.sum()
        expect = np.sum(mass * np.log(mass * n)) / np.log(n)
        assert mi == pytest.approx(expect, rel=0.10)

    def test_in_unit_interval_and_scale_invariant(self):
        s, _ = example("pac", 4096, 9)
        mi = modulation_index(s, 0, THETA, 0, GAMMA)
        assert 0.0 <= mi <= 1.0
        s2 = MultiChannelSeries(s.samples * np.array([250.0, 1.0]), FS)
        assert modulation_index(s2, 0, THETA, 0, GAMMA) == pytest.approx(mi, abs=1e-10)

    def test_bin_multiple_phase_shift_invariance(self):
        # shifting phases by whole bins permutes the distribution circularly,
        # leaving the divergence from uniform unchanged
        rng = np.random.default_rng(10)
        n = 18
        phase = rng.random(50000) * 2 * np.pi
        amp = 1.0 + 0.7 * np.cos(phase)
        base = phase_amplitude_distribution(phase, amp, n)
        mi0 = kl_divergence(base.probs, np.full(n, 1 / n))
        for k in (1, 5, 11):
            shifted = phase_amplitude_distribution(
                np.mod(phase + 2 * np.pi * k / n, 2 * np.pi), amp, n)
            mi = kl_divergence(shifted.probs, np.full(n, 1 / n))
            assert mi == pytest.approx(mi0, abs=1e-12)
            assert np.allclose(np.roll(base.probs, k), shifted.probs, atol=1e-12)


class TestPacScan:
    def test_single_pair_reduces_to_modulation_index(self):
        s, _ = example("pac", 4096, 11)
        mi = pac_scan(s, [THETA], [GAMMA], pairs=[(0, 0)])
        direct = modulation_index(s, 0, THETA, 0, GAMMA)
        assert mi.shape == (1, 1, 1)
        assert mi[0, 0, 0] == direct

    def test_null_scan_small(self):
        rng = np.random.default_rng(12)
        s = MultiChannelSeries(rng.standard_normal((2 ** 14, 2)), FS)
        mi = pac_scan(s, [THETA], [GAMMA])
        assert np.median(mi) < 0.01

    def test_pac_example_theta_gamma_is_row_max(self):
        s, _ = example("pac", 2 ** 14, 13)
        lows = [band_by_name("delta"), THETA, band_by_name("alpha")]
        highs = [band_by_name("beta"), GAMMA]
        mi = pac_scan(s, lows, highs, pairs=[(0, 0)])
        theta_row = mi[0, 1, :]
        assert np.argmax(theta_row) == 1  # gamma column
        assert theta_row[1] == np.max(mi[0])


class TestDistributionExport:
    def test_json_payload(self):
        from specdep.pac import distribution_to_json
        rng = np.random.default_rng(14)
        phase = rng.random(5000) * 2 * np.pi
        amp = 1.0 + 0.5 * np.cos(phase)
        dist = phase_amplitude_distribution(phase, amp, 12)
        payload = distribution_to_json(dist)
        assert payload["n_bins"] == 12
        assert len(payload["probs"]) == 12
        assert sum(payload["probs"]) == pytest.approx(1.0, abs=1e-12)
        import json
        json.dumps(payload)


class TestOptimizedMode:
    def test_mi_bound_check_survives_python_O(self):
        # asserts vanish under -O; the [0, 1] bound must still raise
        code = (
            "import specdep.pac as m\n"
            "from specdep.core import band_by_name\n"
            "from specdep.simulate import example\n"
            "m.kl_divergence = lambda p, q: 10.0\n"
            "s, _ = example('pac', 2048, 1)\n"
            "try:\n"
            "    m.modulation_index(s, 0, band_by_name('theta'), 0, band_by_name('gamma'))\n"
            "except ValueError as exc:\n"
            "    print('raised', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(specdep.__file__)))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised modulation index")
