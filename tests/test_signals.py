"""Signals and the three input measures, cross-checked against oracles."""

import math

import numpy as np
import pytest

from ipss_lab.comparison_functions import identity_fn, make_power_fn
from ipss_lab.errors import ParameterError
from ipss_lab.signals import (
    Signal,
    avg_power_norm,
    constant_signal,
    make_signal,
    pulse_train,
    restrict,
    rho_energy,
    signal_from_json,
    sup_norm,
    zero_signal,
)

from conftest import brute_force_avg_power

SQRT = make_power_fn(1.0, 0.5)
IDENT = identity_fn()


class TestEval:
    def test_constant(self):
        u = constant_signal([1.0], 10.0)
        assert u.eval(5.0)[0] == 1.0

    def test_beyond_horizon_is_zero(self):
        u = constant_signal([1.0], 10.0)
        assert u.eval(10.0)[0] == 0.0
        assert u.eval(100.0)[0] == 0.0

    def test_right_open_pieces(self):
        u = make_signal([(0.0, [1.0]), (2.0, [3.0])], horizon=4.0)
        assert u.eval(2.0)[0] == 3.0
        assert u.eval(1.999999)[0] == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            Signal(breakpoints=np.array([1.0]), values=np.array([[1.0]]),
                   horizon=2.0, dim=1)  # must start at 0
        with pytest.raises(ParameterError):
            Signal(breakpoints=np.array([0.0, 0.0]), values=np.array([[1.0], [2.0]]),
                   horizon=2.0, dim=1)


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(constant_signal([3.0], 10.0), (0, 10)).value == 3.0

    def test_pulse_train_window(self):
        assert sup_norm(pulse_train(1.0, 5), (0.0, 6.0)).value == 25.0

    def test_beyond_horizon(self):
        assert sup_norm(constant_signal([3.0], 2.0), (5.0, 9.0)).value == 0.0

    def test_euclidean_vector_norm(self):
        u = constant_signal([3.0, 4.0], 1.0)
        assert sup_norm(u).value == pytest.approx(5.0)


class TestRhoEnergy:
    def test_constant_identity(self):
        u = constant_signal([1.0], 3.0)
        assert rho_energy(u, IDENT, (0.0, 3.0)).value == 3.0

    def test_pulse_train_closed_form(self):
        """Each pulse holds value k^2 for 1/k, so sqrt-energy is exactly count."""
        for count in (5, 20, 50):
            u = pulse_train(1.0, count)
            assert rho_energy(u, SQRT).value == pytest.approx(count, rel=1e-12)

    def test_zero_signal(self):
        assert rho_energy(zero_signal(1, 5.0), IDENT).value == 0.0


class TestAvgPowerNorm:
    def test_constant_average(self):
        for T in (0.5, 1.0, 3.0):
            nv = avg_power_norm(constant_signal([2.5], 100.0), IDENT, T)
            assert nv.value == pytest.approx(2.5, rel=1e-12)

    def test_pulse_train_sqrt_exact_vs_brute_force(self):
        """Enumerated supremum matches the dense-grid brute force to 1e-6."""
        u = pulse_train(1.0, 50)
        nv = avg_power_norm(u, SQRT, 2.0)
        brute = brute_force_avg_power(u, SQRT, 2.0, step=1e-3)
        assert nv.value == pytest.approx(brute, abs=1e-6)
        # frozen closed form: best window [4/3, 10/3] collects pulses 1..3
        # with 2/3 + 1 + 1 energy, so the norm is (8/3)/2
        assert nv.value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_pulse_train_identity_grows(self):
        """Linear gauge sees ~k/2 from the window around pulse k."""
        nv = avg_power_norm(pulse_train(1.0, 50), IDENT, 2.0)
        assert nv.value >= 25.0

    def test_random_signals_match_brute_force(self, rng):
        for _ in range(10):
            n_pieces = int(rng.integers(1, 8))
            ts = [0.0] + sorted(rng.uniform(0, 5, size=n_pieces - 1).tolist())
            vals = rng.uniform(0, 3, size=n_pieces)
            u = make_signal([(t, [v]) for t, v in zip(ts, vals)], horizon=5.0)
            T = float(rng.uniform(0.3, 2.5))
            nv = avg_power_norm(u, SQRT, T)
            assert nv.value == pytest.approx(
                brute_force_avg_power(u, SQRT, T, step=5e-3), abs=1e-9)

    def test_witness_window_attains_value(self):
        u = pulse_train(1.0, 10)
        nv = avg_power_norm(u, SQRT, 2.0)
        lo, hi = nv.witness
        assert hi - lo == pytest.approx(2.0)


class TestPulseTrain:
    def test_single_pulse(self):
        u = pulse_train(1.0, 1)
        assert u.eval(1.5)[0] == 1.0
        assert u.eval(0.5)[0] == 0.0
        assert u.eval(2.0)[0] == 0.0

    def test_sup_three_pulses(self):
        assert sup_norm(pulse_train(1.0, 3), (0.0, 4.0)).value == 9.0

    def test_support_with_spacing_two(self):
        u = pulse_train(2.0, 2)
        nonzero = [(a, b) for a, b, v in u.pieces() if v[0] != 0.0]
        assert nonzero == [(2.0, 3.0), (4.0, 4.5)]

    def test_trichotomy_scaling_in_count(self):
        """Sup and energy diverge with count; sqrt-power stays bounded."""
        sups, energies, powers = [], [], []
        for count in (10, 30, 50):
            u = pulse_train(1.0, count)
            sups.append(sup_norm(u).value)
            energies.append(rho_energy(u, SQRT).value)
            powers.append(avg_power_norm(u, SQRT, 2.0).value)
        assert sups == [100.0, 900.0, 2500.0]
        assert energies == pytest.approx([10.0, 30.0, 50.0])
        assert max(powers) - min(powers) < 1e-9  # count-independent


def _normalize_reference(pieces, dim, horizon):
    """The per-piece loop that assembled signals before the array pass, kept as its reference."""
    pieces = sorted(pieces, key=lambda p: p[0])
    bps, vals = [], []
    for t, v in pieces:
        if t >= horizon and t > 0:
            continue
        if bps and t == bps[-1]:
            vals[-1] = v  # later entry wins at an exact tie
            continue
        bps.append(t)
        vals.append(np.asarray(v, dtype=float).reshape(dim))
    if not bps or bps[0] != 0.0:
        bps.insert(0, 0.0)
        vals.insert(0, np.zeros(dim))
    keep_b, keep_v = [bps[0]], [vals[0]]
    for t, v in zip(bps[1:], vals[1:]):
        if np.array_equal(v, keep_v[-1]):
            continue
        keep_b.append(t)
        keep_v.append(v)
    return np.asarray(keep_b, dtype=float), np.asarray(keep_v, dtype=float)


def _same_signal(u, bps, vals, horizon):
    return (u.breakpoints.tobytes() == bps.tobytes() and u.values.tobytes() == vals.tobytes()
            and u.horizon == horizon)


class TestArrayAssembly:
    def test_make_signal_matches_the_piece_loop(self, rng):
        """Unsorted starts, exact ties, starts past the horizon, missing 0, repeated values."""
        for _ in range(300):
            k, dim = int(rng.integers(1, 12)), int(rng.integers(1, 3))
            ts = [float(t) for t in rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0], size=k)]
            vs = list(rng.choice([0.0, 1.0, -2.0], size=(k, dim)))
            horizon = float(rng.choice([0.0, 1.0, 2.0, 4.0, 10.0]))
            u = make_signal(list(zip(ts, vs)), horizon=horizon, dim=dim)
            assert _same_signal(u, *_normalize_reference(list(zip(ts, vs)), dim, horizon),
                                horizon)

    @pytest.mark.parametrize("tau,count", [(1.0, 1), (1.0, 2), (1.5, 7), (2.0, 40), (1.0, 2000)])
    def test_pulse_train_matches_the_piece_loop(self, tau, count):
        pieces = [(0.0, np.zeros(1))]
        for k in range(1, count + 1):
            pieces += [(k * tau, np.array([float(k * k)])), (k * tau + 1.0 / k, np.zeros(1))]
        horizon = count * tau + 1.0
        assert _same_signal(pulse_train(tau, count), *_normalize_reference(pieces, 1, horizon),
                            horizon)


class TestMeasureInequalities:
    """Ordering relations among the three measures."""

    def test_power_below_rho_of_sup_and_energy_over_T(self, rng):
        for _ in range(15):
            n_pieces = int(rng.integers(1, 7))
            ts = [0.0] + sorted(rng.uniform(0, 6, size=n_pieces - 1).tolist())
            vals = rng.uniform(0, 4, size=n_pieces)
            u = make_signal([(t, [v]) for t, v in zip(ts, vals)], horizon=6.0)
            T = float(rng.uniform(0.2, 3.0))
            p = avg_power_norm(u, SQRT, T).value
            assert p <= SQRT.eval(sup_norm(u).value) + 1e-12
            assert p <= rho_energy(u, SQRT).value / T + 1e-12

    def test_window_scaling_covering_bound(self, rng):
        """Power at window T is controlled by ceil(T/T*) windows of size T*."""
        for _ in range(20):
            n_pieces = int(rng.integers(1, 7))
            ts = [0.0] + sorted(rng.uniform(0, 6, size=n_pieces - 1).tolist())
            vals = rng.uniform(0, 4, size=n_pieces)
            u = make_signal([(t, [v]) for t, v in zip(ts, vals)], horizon=6.0)
            T = float(rng.uniform(0.5, 4.0))
            T_star = float(rng.uniform(0.2, 2.0))
            lhs = avg_power_norm(u, SQRT, T).value
            rhs = math.ceil(T / T_star) * T_star / T * avg_power_norm(u, SQRT, T_star).value
            assert lhs <= rhs + 1e-10


class TestRestrictAndJson:
    def test_restrict_keeps_interior(self):
        u = constant_signal([2.0], 10.0)
        r = restrict(u, 3.0, 5.0)
        assert r.eval(2.0)[0] == 0.0
        assert r.eval(4.0)[0] == 2.0
        assert r.eval(5.0)[0] == 0.0

    def test_json_reads_the_pieces(self):
        """The CLI's ``input.kind = "signal"`` form; at the tied start 2 the later value wins."""
        v = signal_from_json({"dim": 1, "horizon": 3.0, "pieces": [
            {"t": 0.0, "v": [0.0]}, {"t": 1.0, "v": [1.0]}, {"t": 2.0, "v": [0.0]},
            {"t": 2.0, "v": [4.0]}, {"t": 2.5, "v": [0.0]}]})
        u = pulse_train(1.0, 2)
        assert np.array_equal(v.breakpoints, u.breakpoints) and v.horizon == u.horizon
        assert np.array_equal(v.values, u.values)


class TestDivergedMeasures:
    def test_overflowing_energy_gives_infinite_power(self):
        """An infinite energy is an infinite power, never inf - inf = nan."""
        u = constant_signal([10.0], 2.0)
        rho = make_power_fn(1.0, 400.0)
        with np.errstate(over="ignore"):
            energy = rho_energy(u, rho)
            power = avg_power_norm(u, rho, 1.0)
        assert energy.diverged and energy.value == math.inf
        assert power.diverged and power.value == math.inf
        assert power.witness == (1.0, 2.0)  # the window ending at the overflow

    def test_overflowing_magnitude_gives_diverged_sup(self):
        with np.errstate(over="ignore"):
            nv = sup_norm(constant_signal([1e200], 1.0))
        assert nv.diverged and nv.witness == (0.0, 1.0)


class TestNormValue:
    def test_diverged_flag_must_match_value(self):
        from ipss_lab.signals import NormValue

        assert NormValue(value=math.inf, diverged=True).diverged
        with pytest.raises(ParameterError):
            NormValue(value=math.inf, diverged=False)
        with pytest.raises(ParameterError):
            NormValue(value=1.0, diverged=True)
