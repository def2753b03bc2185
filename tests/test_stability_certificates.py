"""Certificates, envelope checks, transformers, oracle, falsifier."""

import math

import numpy as np
import pytest

import ipss_lab.stability_certificates as sc
from ipss_lab.comparison_functions import (
    KLBound,
    identity_fn,
    make_power_fn,
    make_table_fn,
    scale_fn,
)
from ipss_lab.errors import ParameterError
from ipss_lab.signals import constant_signal, make_signal, rho_energy, zero_signal
from ipss_lab.simulator import counterexample_system, linear_test_system, simulate
from ipss_lab.stability_certificates import (
    Certificate,
    InputFamilySpec,
    certificate_from_json,
    certificate_to_json,
    check_envelope,
    exp_iiss_to_ipss,
    exponential_window_bound,
    falsify,
    ipss_to_iss_iiss,
    lemma3_oracle,
)

IDENT = identity_fn()
EXP_BETA = KLBound(kind="exponential", K=1.0, lam=1.0)


class TestCertificateModel:
    def test_field_presence_enforced(self):
        with pytest.raises(ParameterError):
            Certificate(kind="ISS", beta=EXP_BETA)  # missing gamma
        with pytest.raises(ParameterError):
            Certificate(kind="URGAS", beta=EXP_BETA, gamma=IDENT)  # extra gamma
        with pytest.raises(ParameterError):
            Certificate(kind="IPSS", beta=EXP_BETA, gamma=IDENT, rho=IDENT,
                        T=-1.0)

    def test_json_round_trip(self):
        cert = Certificate(kind="IPSS", beta=EXP_BETA,
                           gamma=make_power_fn(2.0, 1.0), rho=IDENT, T=2.0)
        clone = certificate_from_json(certificate_to_json(cert))
        assert clone.kind == "IPSS"
        assert clone.gamma.eval(3.0) == cert.gamma.eval(3.0)
        assert clone.T == 2.0


class TestCheckEnvelope:
    def test_exact_decay_trajectory(self):
        """x = e^{-t} matches beta(1, t) = e^{-t}, so the margin is ~0."""
        sysd = linear_test_system(1.0)
        traj = simulate(sysd, 0.0, [1.0], zero_signal(1, 5.0), 5.0, 1e-3)
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        rep = check_envelope(traj, cert, zero_signal(1, 5.0), 1.0, 0.0)
        assert rep.satisfied
        assert rep.margin >= -1e-9

    def test_margin_monotone_in_gamma(self):
        sysd = linear_test_system(1.0)
        u = constant_signal([1.0], 5.0)
        traj = simulate(sysd, 0.0, [1.0], u, 5.0, 1e-3)
        small = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        big = Certificate(kind="ISS", beta=EXP_BETA, gamma=scale_fn(IDENT, 10.0))
        m1 = check_envelope(traj, small, u, 1.0, 0.0).margin
        m2 = check_envelope(traj, big, u, 1.0, 0.0).margin
        assert m2 >= m1

    def test_blowup_fails(self):
        from ipss_lab.simulator import SystemDef

        sq = SystemDef(rhs=lambda t, x, u: x ** 2, n=1, m=1)
        traj = simulate(sq, 0.0, [2.0], zero_signal(1, 1.0), 1.0, 1e-3)
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        rep = check_envelope(traj, cert, zero_signal(1, 1.0), 2.0, 0.0)
        assert not rep.satisfied
        assert rep.margin == -math.inf
        assert rep.bounds is None and rep.margins is None

    def test_per_sample_bounds_and_margins(self):
        sysd = linear_test_system(1.0)
        u = constant_signal([1.0], 5.0)
        traj = simulate(sysd, 0.0, [2.0], u, 5.0, 1e-3)
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        rep = check_envelope(traj, cert, u, 2.0, 0.0)
        assert np.array_equal(rep.margins, rep.bounds - traj.norms())
        np.testing.assert_allclose(rep.bounds, 2.0 * np.exp(-traj.times) + 1.0, rtol=1e-15)
        assert rep.margin == float(np.min(rep.margins))
        assert rep.worst_time == float(traj.times[np.argmin(rep.margins)])
        assert "bounds" not in repr(rep) and "margins" not in repr(rep)

    @pytest.mark.parametrize("kind", ["iISS", "IPSS"])
    @pytest.mark.parametrize("rho", [make_table_fn([0.0, 1.0], [0.0, 1e308]),
                                     make_power_fn(1.0, 400.0)], ids=["table", "power"])
    def test_overflowing_gauge_fails_as_diverged_measure(self, kind, rho):
        """rho(10) overflows to inf: a diverged measure, not an exception."""
        u = constant_signal([10.0], 2.0)
        traj = simulate(linear_test_system(1.0), 0.0, [1.0], u, 2.0, 1e-2)
        cert = Certificate(kind=kind, beta=EXP_BETA, gamma=IDENT, rho=rho,
                           T=1.0 if kind == "IPSS" else None)
        with np.errstate(over="ignore"):
            rep = check_envelope(traj, cert, u, 1.0, 0.0)
        assert rep.margin == -math.inf and not rep.satisfied
        assert rep.note == "input measure diverged"
        assert rep.measure == math.inf

    def test_urls_constant_bound(self):
        sysd = linear_test_system(1.0)
        traj = simulate(sysd, 0.0, [1.0], zero_signal(1, 2.0), 2.0, 1e-3)
        cert = Certificate(kind="URLS", urls_epsilon=scale_fn(IDENT, 2.0))
        rep = check_envelope(traj, cert, zero_signal(1, 2.0), 1.0, 0.0)
        assert rep.satisfied


class TestTransformers:
    def test_power_to_sup_and_energy_gains(self):
        cert = Certificate(kind="IPSS", beta=EXP_BETA, gamma=IDENT,
                           rho=IDENT, T=2.0)
        iss, iiss = ipss_to_iss_iiss(cert)
        assert iiss.gamma.eval(4.0) == pytest.approx(2.0)  # gamma(s/T)
        cert2 = Certificate(kind="IPSS", beta=EXP_BETA, gamma=IDENT,
                            rho=make_power_fn(1.0, 2.0), T=1.0)
        iss2, _ = ipss_to_iss_iiss(cert2)
        assert iss2.gamma.eval(3.0) == pytest.approx(9.0)  # gamma o rho
        cert3 = Certificate(kind="IPSS", beta=EXP_BETA, gamma=IDENT,
                            rho=IDENT, T=1.0)
        _, iiss3 = ipss_to_iss_iiss(cert3)
        assert iiss3.gamma.eval(5.0) == pytest.approx(5.0)  # unit window

    def test_transformer_soundness_on_trajectories(self, rng):
        """Whenever the power envelope holds, both derived envelopes hold."""
        sysd = linear_test_system(1.0)
        ipss = exp_iiss_to_ipss(1.0, 1.0, IDENT, IDENT, 1.0)
        iss, iiss = ipss_to_iss_iiss(ipss)
        for _ in range(100):
            xi = float(rng.uniform(-3, 3))
            vals = rng.uniform(-2, 2, size=3)
            u = make_signal([(0.0, [vals[0]]), (1.0, [vals[1]]), (2.5, [vals[2]])],
                            horizon=6.0)
            traj = simulate(sysd, 0.0, [xi], u, 6.0, 2e-3)
            rep_p = check_envelope(traj, ipss, u, abs(xi), 0.0)
            if rep_p.margin >= 0:
                assert check_envelope(traj, iss, u, abs(xi), 0.0).margin >= -1e-9
                assert check_envelope(traj, iiss, u, abs(xi), 0.0).margin >= -1e-9


class TestExponentialWindowBound:
    def test_exact_constants_k2(self):
        lt, amp = exponential_window_bound(2.0, 1.0, 1.0)
        assert lt == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
        assert amp == pytest.approx(8.56884, abs=1e-4)

    def test_exact_constants_k1(self):
        lt, amp = exponential_window_bound(1.0, 1.0, 1.0)
        assert lt == 1.0
        assert amp == pytest.approx(2.58198, abs=1e-4)

    def test_long_window_limit(self):
        _, amp = exponential_window_bound(1.0, 1.0, 20.0)
        assert amp == pytest.approx(2.0, abs=1e-8)

    def test_threshold_enforced(self):
        with pytest.raises(ParameterError):
            exponential_window_bound(2.0, 1.0, math.log(2.0))

    def test_certificate_constants(self):
        cert = exp_iiss_to_ipss(1.0, 1.0, IDENT, IDENT, 1.0)
        assert cert.gamma.eval(1.0) == pytest.approx(2.58198, abs=1e-4)
        assert cert.beta.eval(5.0, 0.0) == pytest.approx(5.0)
        cert2 = exp_iiss_to_ipss(2.0, 1.0, IDENT, IDENT, 1.0)
        assert cert2.gamma.eval(1.0) == pytest.approx(8.56884, abs=1e-4)
        assert cert2.beta.lam == pytest.approx(1.0 - math.log(2.0))

    def test_k_below_one_rejected(self):
        with pytest.raises(ParameterError):
            exp_iiss_to_ipss(0.8, 1.0, IDENT, IDENT, 1.0)


class TestLemma3Oracle:
    def test_zero_profile_pure_decay(self):
        """With no forcing the saturated sequence is the decay envelope."""
        rep = lemma3_oracle(2.0, 1.0, 1.0, IDENT, zero_signal(1, 1.0), 0.01)
        assert rep.min_slack >= -1e-9

    def test_unit_pulses(self):
        h = make_signal([(0.0, [0.0]), (1.0, [1.0]), (2.0, [0.0]),
                         (5.0, [1.0]), (6.0, [0.0]), (10.0, [1.0]),
                         (11.0, [0.0])], horizon=12.0)
        rep = lemma3_oracle(2.0, 1.0, 1.0, IDENT, h, 0.01)
        assert rep.min_slack >= -1e-9

    def test_k_equal_one_reduces_to_amplified_bound(self):
        h = make_signal([(0.0, [0.5]), (3.0, [0.0])], horizon=4.0)
        rep = lemma3_oracle(1.0, 0.5, 2.0, make_power_fn(1.5, 0.8), h, 0.01)
        assert rep.lambda_tilde == 0.5
        assert rep.min_slack >= -1e-9


def late_pulse_signal(t0, amplitude, duration, settle=3.0):
    return make_signal([(0.0, [0.0]), (t0, [amplitude]),
                        (t0 + duration, [0.0])], horizon=t0 + duration + settle)


class TestFalsify:
    def test_ramp_gain_system_defeats_scaled_energy_gain(self):
        """A gain calibrated at the earliest pulse fails at later ones."""
        ce = counterexample_system()
        dur10 = 1.0 / 11.0
        u10 = late_pulse_signal(10.0, 0.5, dur10)
        tr10 = simulate(ce, 10.0, [0.0], u10, u10.horizon, dur10 / 20.0)
        peak10 = float(np.max(tr10.norms()))
        energy10 = rho_energy(u10, IDENT).value
        gain = 1.1 * peak10 / energy10
        cert = Certificate(kind="iISS", beta=EXP_BETA,
                           gamma=make_power_fn(gain, 1.0), rho=IDENT)
        family = InputFamilySpec(family="late_pulses",
                                 t0_values=(10.0, 100.0, 1000.0),
                                 xi_values=(0.0,), amplitude=0.5)
        rep = falsify(ce, cert, family, budget=10)
        assert rep.falsified
        violated_at = {v["t0"] for v in rep.violations}
        assert violated_at == {100.0, 1000.0}
        assert rep.worst["t0"] == 1000.0
        for v in rep.violations:
            assert v["peak_state_norm"] >= 0.25

    def test_late_pulse_steps_fine_on_the_pulse_only(self, monkeypatch):
        """20 anchored steps on each pulse, the coarse stability step elsewhere."""
        runs = []

        def recorded(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(sc, "simulate", recorded)
        ce = counterexample_system()
        cert = Certificate(kind="iISS", beta=EXP_BETA, gamma=IDENT, rho=IDENT)
        family = InputFamilySpec(family="late_pulses", t0_values=(10.0, 100.0, 1000.0),
                                 xi_values=(0.0,), amplitude=0.5)
        rep = falsify(ce, cert, family, budget=10)
        assert len(runs) == len(rep.violations) == 3  # every candidate violates
        assert runs[2].times.size - 1 <= 2000  # 60,080 at the pulse step throughout
        for traj, res in zip(runs, rep.violations):
            t0 = res["t0"]
            duration = 1.0 / (1.0 + t0)
            on_pulse = (traj.times >= t0) & (traj.times <= t0 + duration)
            assert int(np.count_nonzero(on_pulse)) == 21
            u = late_pulse_signal(t0, 0.5, duration)
            fine = simulate(ce, t0, [0.0], u, t0 + duration, duration / 400.0)
            ref = float(np.max(fine.norms()))
            assert abs(res["peak_state_norm"] - ref) <= 1e-7 * ref

    def test_constant_inputs_remain_consistent(self):
        """The same engine confirms the sup-gain envelope under constants."""
        ce = counterexample_system()
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        family = InputFamilySpec(family="constants",
                                 t0_values=(0.0, 10.0, 100.0),
                                 xi_values=(0.0,), levels=(0.1, 1.0),
                                 horizon=10.0)
        rep = falsify(ce, cert, family, budget=10, tolerance=0.01)
        assert not rep.falsified
        assert rep.worst["margin"] >= -0.01

    def test_rescaled_gain_weakly_improves_margins(self):
        ce = counterexample_system()
        family = InputFamilySpec(family="late_pulses", t0_values=(100.0,),
                                 xi_values=(0.0,), amplitude=0.5)
        small = Certificate(kind="iISS", beta=EXP_BETA, gamma=IDENT, rho=IDENT)
        huge = Certificate(kind="iISS", beta=EXP_BETA,
                           gamma=make_power_fn(1e6, 1.0), rho=IDENT)
        m_small = falsify(ce, small, family, 5).worst["margin"]
        m_huge = falsify(ce, huge, family, 5).worst["margin"]
        assert m_huge > m_small

    def test_synthesized_certificate_survives_search(self):
        """No violation of the power certificate on the dissipative testbed."""
        sysd = linear_test_system(1.0)
        cert = exp_iiss_to_ipss(1.0, 1.0, IDENT, IDENT, 1.0)
        family = InputFamilySpec(family="bang_bang", t0_values=(0.0, 1.0),
                                 xi_values=(-2.0, 0.0, 2.0), amplitude=1.5,
                                 period=0.7, horizon=6.0)
        rep = falsify(sysd, cert, family, budget=20, step=2e-3)
        assert not rep.falsified

    def test_budget_respected_and_deterministic(self):
        ce = counterexample_system()
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        family = InputFamilySpec(family="constants", t0_values=(0.0,),
                                 xi_values=(0.0,), levels=(0.1, 0.5, 1.0),
                                 horizon=5.0)
        r1 = falsify(ce, cert, family, budget=2)
        r2 = falsify(ce, cert, family, budget=2)
        assert r1.n_evaluated == 2
        assert r1.to_json() == r2.to_json()
