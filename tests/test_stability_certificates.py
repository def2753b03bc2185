"""Certificates, envelope checks, transformers, oracle, falsifier."""

import itertools
import json
import math

import numpy as np
import pytest

import ipss_lab.stability_certificates as sc
from ipss_lab.comparison_functions import (
    KLBound,
    MonotoneFn,
    identity_fn,
    make_power_fn,
    make_table_fn,
    scale_fn,
)
from ipss_lab.errors import DynamicsError, ParameterError
from ipss_lab.signals import (
    constant_signal,
    cumulative_energy,
    make_signal,
    pulse_train,
    rho_energy,
    zero_signal,
)
from ipss_lab.simulator import (SystemDef, counterexample_system, linear_test_system, simulate,
                                simulate_batch)
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
# one certificate of each kind, with power and table gains
KIND_CERTS = {
    "ISS": Certificate(kind="ISS", beta=EXP_BETA, gamma=make_power_fn(2.0, 1.0)),
    "iISS": Certificate(kind="iISS", beta=EXP_BETA, rho=IDENT,
                        gamma=make_table_fn([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], "Kinf")),
    "IPSS": Certificate(kind="IPSS", beta=EXP_BETA, gamma=make_power_fn(2.0, 1.0),
                        rho=make_power_fn(1.0, 2.0), T=2.0),
    "URGAS": Certificate(kind="URGAS", beta=KLBound(kind="exponential", K=2.0, lam=0.5)),
    "URLS": Certificate(kind="URLS", urls_epsilon=make_power_fn(3.0, 1.0)),
}


class TestCertificateModel:
    def test_field_presence_enforced(self):
        with pytest.raises(ParameterError):
            Certificate(kind="ISS", beta=EXP_BETA)  # missing gamma
        with pytest.raises(ParameterError):
            Certificate(kind="URGAS", beta=EXP_BETA, gamma=IDENT)  # extra gamma
        with pytest.raises(ParameterError):
            Certificate(kind="IPSS", beta=EXP_BETA, gamma=IDENT, rho=IDENT,
                        T=-1.0)

    @pytest.mark.parametrize("kind, carried", [
        ("ISS", {"beta", "gamma"}),
        ("iISS", {"beta", "gamma", "rho"}),
        ("IPSS", {"beta", "gamma", "rho", "T"}),
        ("URGAS", {"beta"}),
        ("URLS", {"urls_epsilon"}),
    ])
    def test_json_round_trip(self, kind, carried):
        """The JSON holds the kind and exactly its fields, and the reloaded fields evaluate
        as the originals do."""
        cert = KIND_CERTS[kind]
        d = json.loads(json.dumps(certificate_to_json(cert)))
        assert set(d) == {"kind"} | carried
        clone = certificate_from_json(d)
        assert clone.kind == kind and certificate_to_json(clone) == d
        s, t = np.linspace(0.0, 2.0, 9), np.linspace(0.0, 3.0, 7)
        for name in carried - {"T"}:
            args = (s[:, None], t[None, :]) if name == "beta" else (s,)
            assert np.array_equal(getattr(clone, name).eval(*args),
                                  getattr(cert, name).eval(*args)), name
        assert clone.T == cert.T

    @pytest.mark.parametrize("kind", sorted(KIND_CERTS))
    def test_json_field_the_kind_must_not_carry_is_refused(self, kind):
        d = certificate_to_json(KIND_CERTS[kind])
        every_field = {**certificate_to_json(KIND_CERTS["IPSS"]),
                       **certificate_to_json(KIND_CERTS["URLS"])}
        extra = sorted(set(every_field) - set(d))
        assert extra
        for name in extra:
            with pytest.raises(ParameterError,
                               match=f"^{kind} certificate must not carry field {name}$"):
                certificate_from_json({**d, name: every_field[name]})

    @pytest.mark.parametrize("kind", sorted(KIND_CERTS))
    def test_json_key_outside_the_fields_is_ignored(self, kind):
        d = certificate_to_json(KIND_CERTS[kind])
        clone = certificate_from_json({**d, "note": "not a field", "Gamma": [1.0]})
        assert certificate_to_json(clone) == d


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

    def test_power_gains_export_as_power_specs(self):
        """gamma o rho and s -> gamma(s / T) of power functions stay power functions."""
        cert = Certificate(kind="IPSS", beta=EXP_BETA, gamma=make_power_fn(3.0, 2.0),
                           rho=make_power_fn(0.5, 1.5), T=4.0)
        iss, iiss = ipss_to_iss_iiss(cert)
        grid = [0.0, 1.0, 10.0]
        assert certificate_to_json(iss, gain_grid=grid)["gamma"] == {
            "kind": "power", "c": 3.0 * 0.5 ** 2.0, "p": 3.0}
        assert certificate_to_json(iiss, gain_grid=grid)["gamma"] == {
            "kind": "power", "c": 3.0 * (1.0 / 4.0) ** 2.0, "p": 2.0}
        assert iss.gamma.eval(2.0) == pytest.approx(3.0 * (0.5 * 2.0 ** 1.5) ** 2.0, rel=1e-14)
        assert iiss.gamma.eval(2.0) == pytest.approx(3.0 * (2.0 / 4.0) ** 2.0, rel=1e-14)

    def test_transformer_soundness_on_trajectories(self, rng):
        """Whenever the power envelope holds, both derived envelopes hold."""
        sysd = linear_test_system(1.0)
        ipss = exp_iiss_to_ipss(1.0, 1.0, IDENT, IDENT, 1.0)
        iss, iiss = ipss_to_iss_iiss(ipss)
        cases = []
        for _ in range(100):
            xi = float(rng.uniform(-3, 3))
            vals = rng.uniform(-2, 2, size=3)
            cases.append((xi, make_signal([(0.0, [vals[0]]), (1.0, [vals[1]]),
                                           (2.5, [vals[2]])], horizon=6.0)))
        trajs = simulate_batch(sysd, 0.0, [[xi] for xi, _ in cases], [u for _, u in cases],
                               6.0, 2e-3)
        for (xi, u), traj in zip(cases, trajs):
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

    def test_bounded_energy_gain_is_refused(self):
        """A bounded class-K gain stays class K, which no IPSS gain may be."""
        bounded = make_table_fn([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], class_tag="K")
        with pytest.raises(ParameterError, match="gamma must be class Kinf, got K"):
            exp_iiss_to_ipss(1.5, 1.0, bounded, IDENT, 1.0)

    def test_table_gain_keeps_its_inverse_and_derivative(self):
        """gamma(s) = amp g(T s) inverts as g^{-1}(y / amp) / T."""
        g = make_table_fn([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 3.0])
        cert = exp_iiss_to_ipss(1.5, 1.0, g, IDENT, 2.0)
        _, amp = exponential_window_bound(1.5, 1.0, 2.0)
        assert cert.gamma.class_tag == "Kinf"
        s = np.array([0.1, 0.3, 0.75, 1.7, 9.0])
        np.testing.assert_allclose(cert.gamma.inverse(cert.gamma.eval(s)), s, rtol=1e-13)
        assert cert.gamma.inverse(float(cert.gamma.eval(0.3))) == pytest.approx(0.3, rel=1e-13)
        square = MonotoneFn(eval=lambda v: np.square(v), class_tag="Kinf",
                            derivative=lambda v: 2.0 * np.asarray(v))  # no power spec
        cert2 = exp_iiss_to_ipss(1.5, 1.0, square, IDENT, 2.0)
        assert cert2.gamma.inverse is None
        assert cert2.gamma.derivative(0.5) == pytest.approx(amp * 2.0 * 2.0 * (2.0 * 0.5))


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

    @pytest.mark.parametrize("name, value", [
        ("K", math.nan),          # passed as min_slack = inf
        ("g0", math.nan),         # passed as min_slack = inf
        ("g0", -1.0),             # min_slack = -inf
        ("t_max", math.nan),      # ValueError from int(nan)
        ("t_max", math.inf),      # OverflowError from int(inf)
        ("t_max", -1.0),          # IndexError on an empty grid
        ("grid_step", math.nan),  # ValueError from int(nan)
        ("t_max", 0.01),          # below grid_step: a one-point grid that checks nothing
    ])
    def test_bad_input_names_its_argument(self, name, value):
        args = dict(K=2.0, lam=1.0, T=1.0, eta=IDENT, h_profile=zero_signal(1, 1.0),
                    grid_step=0.05, t_max=2.0, g0=1.0)
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            lemma3_oracle(**{**args, name: value})

    @pytest.mark.parametrize("K, lam, T, name", [
        (math.nan, 1.0, 1.0, "K"),
        (2.0, math.inf, 1.0, "lam"),
        (2.0, 1.0, math.inf, "T"),
    ])
    def test_window_bound_needs_finite_constants(self, K, lam, T, name):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            exponential_window_bound(K, lam, T)


def _lemma3_reference(K, lam, T, eta, h_profile, grid_step, t_max=20.0, g0=1.0):
    """The all-pairs loops the oracle replaced, kept verbatim as its reference."""
    lambda_tilde, amplification = exponential_window_bound(K, lam, T)
    n = int(round(t_max / grid_step))
    ts = grid_step * np.arange(n + 1)
    knots, cum = cumulative_energy(h_profile, None)
    H = np.interp(ts, knots, cum, right=float(cum[-1]))

    # forward saturation: each value is pinned by earlier values only
    g = np.empty(n + 1)
    g[0] = g0
    for i in range(1, n + 1):
        cand = K * g[:i] * np.exp(-lam * (ts[i] - ts[:i])) + np.asarray(
            eta.eval(H[i] - H[:i]), dtype=float
        )
        g[i] = float(np.min(cand))

    # windowed-bound check over all grid pairs
    min_slack = math.inf
    worst = (0.0, 0.0)
    for i in range(n + 1):
        tj = ts[i:]
        win_lo = np.maximum(ts[i], tj - T)
        H_lo = np.interp(win_lo, knots, cum, right=float(cum[-1]))
        window = H[i:] - H_lo
        phi = np.maximum.accumulate(window)
        rhs = K * g[i] * np.exp(-lambda_tilde * (tj - ts[i])) \
            + amplification * np.asarray(eta.eval(phi), dtype=float)
        slack = rhs - g[i:]
        j = int(np.argmin(slack))
        if float(slack[j]) < min_slack:
            min_slack = float(slack[j])
            worst = (float(ts[i]), float(tj[j]))
    return sc.OracleReport(
        min_slack=min_slack,
        worst_pair=worst,
        lambda_tilde=lambda_tilde,
        amplification=amplification,
        grid_step=float(grid_step),
        n_grid=n + 1,
    )


def _seeded_lemma3_case(seed):
    """A small seeded oracle case: T and breakpoints on or off the 0.05 grid,
    a power or a table eta, zero or positive input at t = 0."""
    rng = np.random.default_rng(seed)
    K = float(rng.uniform(1.0, 4.0))
    lam = float(rng.uniform(0.3, 2.0))
    step = 0.05
    T = math.log(K) / lam + float(rng.uniform(0.1, 1.5))
    if rng.uniform() < 0.5:
        T = step * math.ceil(T / step)
    if rng.uniform() < 0.5:
        eta = make_power_fn(float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.4, 2.0)))
    else:
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 6.0, 6))])
        eta = make_table_fn(xs, np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 2.0, 6))]))
    n = int(rng.integers(1, 7))
    bps = np.sort(rng.uniform(0.0, 10.0, n))
    if rng.uniform() < 0.5:
        bps = np.round(bps / step) * step
    vals = rng.uniform(0.0, 2.0, n)
    vals[rng.uniform(size=n) < 0.3] = 0.0
    first = float(rng.uniform(0.0, 1.0)) if rng.uniform() < 0.4 else 0.0
    h = make_signal([(0.0, [first])] + [(float(t), [float(v)])
                                        for t, v in zip(bps, vals) if t > 0], horizon=12.0)
    return K, lam, T, eta, h, step, 12.0


_UNIT_PULSES = make_signal([(0.0, [0.0]), (1.0, [1.0]), (2.0, [0.0]), (5.0, [1.0]),
                            (6.0, [0.0]), (10.0, [1.0]), (11.0, [0.0])], horizon=12.0)

_LEMMA3_CASES = {
    # K = 1 and no input: the diagonal slack (K - 1) g is 0 and every pair ties
    "k1-zero-profile": (1.0, 0.7, 0.5, IDENT, zero_signal(1, 1.0), 0.05, 12.0),
    "k2-zero-profile": (2.0, 1.0, 1.0, IDENT, zero_signal(1, 1.0), 0.05, 10.0),
    "unit-pulses": (2.0, 1.0, 1.0, IDENT, _UNIT_PULSES, 0.05, 12.0),
    "table-eta": (1.5, 0.8, 1.1, make_table_fn([0.0, 0.5, 1.0, 3.0], [0.0, 0.1, 1.2, 2.0]),
                  _UNIT_PULSES, 0.05, 12.0),
    "off-grid-T-and-breakpoints": (
        2.5, 1.2, 1.2345, make_power_fn(0.7, 1.6),
        make_signal([(0.0, [0.0]), (0.813, [1.7]), (2.377, [0.2]), (6.0301, [0.0])],
                    horizon=9.0), 0.05, 11.0),
    "input-at-zero": (
        3.0, 1.5, 1.0, make_power_fn(1.2, 0.6),
        make_signal([(0.0, [1.3]), (2.2, [0.0]), (5.0, [0.7]), (5.5, [0.0])],
                    horizon=8.0), 0.05, 10.0),
    # a pulse ending at t = 1.55, the last row of the first row block, and
    # the grid ending T later: the pair (1.55, 3.4) ties the diagonal at
    # 3.4, lies more than T apart and is the first least pair, so the tail
    # and its skip decide the report
    "far-worst-pair": (
        1.5, 2.0, 37 * 0.05, IDENT,
        make_signal([(0.0, [0.0]), (0.5, [0.5]), (31 * 0.05, [0.0])], horizon=4.0),
        0.05, 68 * 0.05),
    # a pulse tail on [0.75, 0.79) and a pulse from 1.99: the first least pair
    # (0.75, 2.0) lies past the window, at the first column whose window
    # [t_j - T, t_j] starts after its row, with input at both ends of that
    # window, so a window taken from the row's own time there misses it
    "window-ends-worst-pair": (
        2.0, 3.0, 24 * 0.05, IDENT,
        make_signal([(0.0, [0.0]), (0.55, [1.4]), (0.75, [0.05]), (0.79, [0.0]), (1.99, [0.2])],
                    horizon=3.0), 0.05, 40 * 0.05),
    # eta flat on [0.5, 2] and an input-free stretch longer than T: slacks
    # of many columns tie, and the floors must still let the first one through
    "flat-eta-long-gap": (
        1.8, 1.0, 1.0, make_table_fn([0.0, 0.5, 2.0, 3.0], [0.0, 0.4, 0.4, 1.5]),
        make_signal([(0.0, [0.0]), (0.5, [1.2]), (1.0, [0.0]), (6.0, [0.9]), (6.5, [0.0])],
                    horizon=10.0), 0.05, 10.0),
    **{f"seeded-{seed}": _seeded_lemma3_case(seed) for seed in (3, 17, 41, 62, 101)},
}


class TestLemma3OracleBitIdentity:
    @pytest.mark.parametrize("name", sorted(_LEMMA3_CASES))
    def test_report_equals_all_pairs_loops(self, name):
        case = _LEMMA3_CASES[name]
        assert lemma3_oracle(*case) == _lemma3_reference(*case)

    def test_far_case_worst_pair_lies_past_the_window(self):
        K, lam, T, eta, h, step, t_max = _LEMMA3_CASES["far-worst-pair"]
        i, j = _lemma3_reference(K, lam, T, eta, h, step, t_max).worst_pair
        assert j - T > i

    def test_window_ends_case_has_input_at_both_ends_of_its_window(self):
        K, lam, T, eta, h, step, t_max = _LEMMA3_CASES["window-ends-worst-pair"]
        i, j = _lemma3_reference(K, lam, T, eta, h, step, t_max).worst_pair
        assert i < j - T <= i + step  # the row's first column past the window
        knots, cum = cumulative_energy(h, None)
        H = np.interp([i, j - T, j - step, j], knots, cum)
        assert H[1] > H[0] and H[3] > H[2]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_the_report(self, monkeypatch, block):
        monkeypatch.setattr(sc, "_ORACLE_BLOCK", block)
        for name in ("far-worst-pair", "off-grid-T-and-breakpoints", "seeded-62"):
            case = _LEMMA3_CASES[name]
            assert lemma3_oracle(*case) == _lemma3_reference(*case), name

    def test_eta_work_is_far_below_all_pairs(self):
        """The old loops evaluate eta on about n^2 grid pairs; the passes on 413,369."""
        count = [0]

        def counted(s):
            count[0] += np.size(s)
            return IDENT.eval(s)

        eta = MonotoneFn(eval=counted, class_tag="Kinf")
        count[0] = 0
        rep = lemma3_oracle(2.0, 1.0, 1.0, eta, _UNIT_PULSES, 0.01, t_max=20.0)
        n = rep.n_grid
        assert n == 2001
        assert count[0] < 430_000, count[0]


def late_pulse_signal(t0, amplitude, duration, settle=3.0):
    return make_signal([(0.0, [0.0]), (t0, [amplitude]),
                        (t0 + duration, [0.0])], horizon=t0 + duration + settle)


def _family_candidates_reference(family: InputFamilySpec, step: float):
    """The candidate generator as it was before its four families shared one (t0, xi) loop."""
    if family.family == "constants":
        for t0 in family.t0_values:
            for xi in family.xi_values:
                for c in family.levels:
                    t_end = t0 + family.horizon
                    u = constant_signal([c], t_end)
                    yield t0, xi, u, step, t_end, (), f"constant(c={c})"
    elif family.family == "pulse_trains":
        for t0 in family.t0_values:
            for xi in family.xi_values:
                u = pulse_train(family.tau, family.count)
                t_end = max(t0 + family.horizon, u.horizon)
                yield t0, xi, u, step, t_end, (), (
                    f"pulse_train(tau={family.tau}, count={family.count})")
    elif family.family == "late_pulses":
        for t0 in family.t0_values:
            duration = family.duration_scale / (1.0 + t0)
            for xi in family.xi_values:
                t_end = t0 + duration + family.settle
                u = make_signal(
                    [(0.0, [0.0]), (t0, [family.amplitude]), (t0 + duration, [0.0])],
                    horizon=t_end,
                )
                # 20 anchored steps on the pulse; elsewhere the step that
                # keeps RK4 stable against the ramp gain (1 + t)
                pulse = tuple(t0 + duration * k / 20.0 for k in range(1, 20))
                yield t0, xi, u, 2.0 / (3.0 + t_end), t_end, pulse, (
                    f"late_pulse(t0={t0}, amp={family.amplitude}, dur={duration:.6g})"
                )
    else:  # bang_bang
        for t0 in family.t0_values:
            for xi in family.xi_values:
                t_end = t0 + family.horizon
                pieces = []
                k = 0
                t = 0.0
                while t < t_end:
                    amp = family.amplitude if k % 2 == 0 else -family.amplitude
                    pieces.append((t, [amp]))
                    k += 1
                    t = k * family.period
                u = make_signal(pieces, horizon=t_end)
                yield t0, xi, u, step, t_end, (), (
                    f"bang_bang(amp={family.amplitude}, period={family.period})"
                )


def _comparable(candidate):
    """A candidate with its input signal as its breakpoints, values and horizon."""
    t0, xi, u, *rest = candidate
    return (t0, xi, u.breakpoints.tolist(), u.values.tolist(), u.horizon, *rest)


class TestFamilyCandidates:
    @pytest.mark.parametrize("family", [
        InputFamilySpec(family="constants", t0_values=(0.0, 10.0), xi_values=(0.0, 1.5),
                        levels=(0.1, 1.0, -2.0), horizon=4.0),
        # the train outlasts the horizon from t0 = 0 but not from t0 = 8
        InputFamilySpec(family="pulse_trains", t0_values=(0.0, 8.0), xi_values=(0.0, -1.0),
                        tau=1.5, count=4, horizon=2.0),
        InputFamilySpec(family="late_pulses", t0_values=(10.0, 100.0, 1000.0),
                        xi_values=(0.0, 2.0), amplitude=0.5, duration_scale=2.0, settle=1.0),
        # t_end 6 is a multiple of the period 0.5; t_end 7 is not one of 0.7 in floats
        InputFamilySpec(family="bang_bang", t0_values=(0.0, 1.0), xi_values=(-2.0, 2.0),
                        amplitude=1.5, period=0.5, horizon=6.0),
        InputFamilySpec(family="bang_bang", t0_values=(1.0,), xi_values=(0.0, 1.0),
                        amplitude=-0.25, period=0.7, horizon=6.0),
    ], ids=lambda f: f.family)
    def test_equal_to_the_per_family_loops(self, family):
        got = [_comparable(c) for c in sc._family_candidates(family, 2e-3)]
        ref = [_comparable(c) for c in _family_candidates_reference(family, 2e-3)]
        assert len(got) > 1 and got == ref

    def test_candidates_are_lazy(self):
        """``falsify`` takes the first ``budget`` candidates without building the rest."""
        family = InputFamilySpec(family="late_pulses", t0_values=tuple(range(10**5)))
        first = list(itertools.islice(sc._family_candidates(family, 1e-3), 2))
        assert [c[0] for c in first] == [0, 1]


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
        """20 anchored steps on each pulse, the coarse stability step elsewhere,
        all candidates in one batch."""
        batches = []

        def recorded(*args):
            batches.append(simulate_batch(*args))
            return batches[-1]

        monkeypatch.setattr(sc, "simulate_batch", recorded)
        ce = counterexample_system()
        cert = Certificate(kind="iISS", beta=EXP_BETA, gamma=IDENT, rho=IDENT)
        family = InputFamilySpec(family="late_pulses", t0_values=(10.0, 100.0, 1000.0),
                                 xi_values=(0.0,), amplitude=0.5)
        rep = falsify(ce, cert, family, budget=10)
        assert len(batches) == 1
        runs = batches[0]
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

    def test_round_off_below_the_tolerance_is_no_violation(self):
        """An exact bound at zero input misses by round-off only, which the
        envelope check calls satisfied; such a candidate is no violation."""
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        family = InputFamilySpec(family="constants", xi_values=(1.0, 2.0), levels=(0.0,))
        rep = falsify(linear_test_system(1.0), cert, family, budget=10)
        assert rep.n_evaluated == 2
        assert rep.worst["margin"] < 0.0 and rep.worst["satisfied"]
        assert not rep.falsified

    def test_empty_family_evaluates_nothing(self, monkeypatch):
        monkeypatch.setattr(sc, "simulate_batch", None)  # never called
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        rep = falsify(linear_test_system(1.0), cert,
                      InputFamilySpec(family="constants", levels=()), budget=5)
        assert rep.worst is None and rep.n_evaluated == 0 and not rep.falsified

    def test_first_failing_candidate_error_is_raised(self):
        """Candidates run as one batch; the first nonfinite one's error is raised."""
        bad = SystemDef(rhs=lambda t, x, u: np.where(u > 0.5, np.nan * x, -x), n=1, m=1)
        cert = Certificate(kind="ISS", beta=EXP_BETA, gamma=IDENT)
        family = InputFamilySpec(family="constants", levels=(0.1, 0.7, 0.9), horizon=1.0)
        with pytest.raises(DynamicsError) as batched:
            falsify(bad, cert, family, budget=10)
        with pytest.raises(DynamicsError) as lone:
            simulate(bad, 0.0, [0.0], constant_signal([0.7], 1.0), 1.0, 1e-3)
        assert str(batched.value) == str(lone.value)

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
