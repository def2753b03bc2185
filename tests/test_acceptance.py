"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run with ``-s`` to see them
live) and enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from ipss_lab.comparison_functions import (
    KLBound,
    compose,
    identity_fn,
    inverse_fn,
    make_power_fn,
    scale_fn,
    sontag_factorize_exponential,
)
from ipss_lab.converse_construction import (
    ConverseConfig,
    ConverseEvaluator,
    ConverseProbePlan,
    DisturbedSystem,
    build_mrk_table,
    check_converse_properties,
    regularized_rho,
    wk_estimates,
)
from ipss_lab.lyapunov_tools import (
    DissipationSpec,
    LyapunovCandidate,
    abs_candidate,
    build_kappa,
    check_derivative_bound,
    check_implication_form,
    dini_derivative,
    ipss_gains_from_dissipation,
    make_plan,
)
from ipss_lab.signals import (
    avg_power_norm,
    make_signal,
    pulse_train,
    rho_energy,
    sup_norm,
)
from ipss_lab.simulator import (
    SystemDef,
    counterexample_system,
    linear_test_system,
    lipschitz_probes,
    perturbed_decay_system,
    simulate_batch,
)
from ipss_lab.stability_certificates import (
    Certificate,
    InputFamilySpec,
    check_envelope,
    exp_iiss_to_ipss,
    exponential_window_bound,
    falsify,
    lemma3_oracle,
)

from conftest import brute_force_avg_power

IDENT = identity_fn()


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = None

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.label} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget}s")
        return False


def _random_pw_signal(rng, horizon, value_range, max_pieces=12):
    n_pieces = int(rng.integers(1, max_pieces))
    starts = [0.0] + sorted(float(v) for v in rng.uniform(0, horizon, size=n_pieces - 1))
    vals = rng.uniform(-value_range, value_range, size=n_pieces)
    return make_signal([(t, [float(v)]) for t, v in zip(starts, vals)],
                       horizon=horizon)


def _worst_envelope_margin(cert, rng, xi_range, u_range, runs=200):
    """Worst envelope margin of seeded runs of ``linear(1)``, integrated as one batch."""
    draws = []
    for _ in range(runs):
        xi = float(rng.uniform(-xi_range, xi_range))
        draws.append((xi, _random_pw_signal(rng, 8.0, u_range)))
    trajs = simulate_batch(linear_test_system(1.0), 0.0, [[xi] for xi, _ in draws],
                           [u for _, u in draws], 8.0, 2e-3)
    return min(check_envelope(traj, cert, u, abs(xi), 0.0).margin
               for (xi, u), traj in zip(draws, trajs))


def test_criterion_1_window_bound_oracle_suite():
    """Saturated sequences obey the windowed bound for 100 seeded cases."""
    with _Criterion(1, "window-bound oracle suite (100 seeded cases)", 30.0):
        rng = np.random.default_rng(101)
        worst = math.inf
        for _ in range(100):
            K = float(rng.uniform(1.0, 5.0))
            lam = float(rng.uniform(0.2, 2.0))
            threshold = math.log(K) / lam
            # T on the 0.01 lattice keeps the block iteration grid-exact
            T = math.ceil((threshold * 1.15 + 0.2) / 0.01) * 0.01 \
                + int(rng.integers(0, 200)) * 0.01
            eta = make_power_fn(float(rng.uniform(0.3, 3.0)),
                                float(rng.uniform(0.4, 2.0)))
            n_pieces = int(rng.integers(2, 8))
            ts = np.sort(rng.integers(1, 1500, size=n_pieces)) * 0.01
            vals = rng.uniform(0.0, 2.0, size=n_pieces)
            h = make_signal([(0.0, [0.0])] + [(float(t), [float(v)])
                                              for t, v in zip(ts, vals)],
                            horizon=16.0)
            rep = lemma3_oracle(K, lam, T, eta, h, 0.01, t_max=20.0)
            worst = min(worst, rep.min_slack)
        assert worst >= -1e-6, f"worst slack {worst}"


def test_criterion_2_exponential_transformer_constants_and_envelope():
    """Exact window constants, then 200 seeded envelope checks."""
    with _Criterion(2, "exponential transformer constants + 200-sim envelope", 60.0):
        lt, amp = exponential_window_bound(2.0, 1.0, 1.0)
        assert lt == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
        assert amp == pytest.approx(8.56884, abs=1e-4)

        cert = exp_iiss_to_ipss(1.0, 1.0, IDENT, IDENT, 1.0)
        worst = _worst_envelope_margin(cert, np.random.default_rng(202), 5.0, 5.0)
        assert worst >= -1e-6, f"worst margin {worst}"


def test_criterion_3_kappa_construction():
    """Closed-form a-table, exact normalization, growth inequality."""
    with _Criterion(3, "kappa construction vs closed form", 10.0):
        bundle = build_kappa(IDENT, (1e-3, 1e3), 1e-10)
        inside = (bundle.qs >= 1e-3) & (bundle.qs <= 1e3)
        exact = np.log1p(bundle.qs[inside] ** 2) / math.pi
        rel = np.abs(bundle.a_vals[inside] - exact) / exact
        assert np.max(rel) <= 1e-8, f"a-table rel error {np.max(rel)}"
        assert bundle.kappa.eval(1.0) == 1.0
        pts = np.geomspace(1e-3, 1e3, 200)
        # kappa' * sigma >= 2 kappa (1 - 1e-6)  <=>  sigma >= a (1 - 1e-6)
        sigma_vals = pts
        a_vals = np.asarray(bundle.a_fn.eval(pts))
        assert np.all(sigma_vals >= a_vals * (1.0 - 1e-6))


def test_criterion_4_power_gain_synthesis_end_to_end():
    """Synthesized power envelope holds on 200 seeded linear runs."""
    with _Criterion(4, "gain synthesis end-to-end (200 seeded runs)", 60.0):
        bundle = build_kappa(IDENT, (1e-3, 1e3), 1e-10)
        spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
        beta, gamma, rho = ipss_gains_from_dissipation(IDENT, IDENT, spec,
                                                       1.0, bundle)
        cert = Certificate(kind="IPSS", beta=beta, gamma=gamma, rho=rho, T=1.0)
        worst = _worst_envelope_margin(cert, np.random.default_rng(404), 10.0, 10.0)
        assert worst >= -1e-6, f"worst margin {worst}"


def test_criterion_5_ramp_gain_counterexample_demonstration():
    """Late short pulses defeat scaled gains while constants stay safe."""
    with _Criterion(5, "ramp-gain counterexample falsification + consistency", 30.0):
        ce = counterexample_system()
        beta = KLBound(kind="exponential", K=1.0, lam=1.0)

        # peaks and energies of the pulse responses, on the falsifier's
        # schedule: 20 anchored steps on the pulse, the stability step after
        t0s = (10.0, 100.0, 1000.0)
        durs = [1.0 / (1.0 + t0) for t0 in t0s]
        t_ends = [t0 + dur + 3.0 for t0, dur in zip(t0s, durs)]
        us = [make_signal([(0.0, [0.0]), (t0, [0.5]), (t0 + dur, [0.0])], horizon=t_end)
              for t0, dur, t_end in zip(t0s, durs, t_ends)]
        pulses = [tuple(t0 + dur * k / 20.0 for k in range(1, 20))
                  for t0, dur in zip(t0s, durs)]
        trajs = simulate_batch(ce, t0s, [[0.0]] * 3, us, t_ends,
                               [2.0 / (3.0 + t_end) for t_end in t_ends], pulses)
        peaks = {}
        for t0, u, traj in zip(t0s, us, trajs):
            peaks[t0] = float(np.max(traj.norms()))
            assert peaks[t0] >= 0.25
            energy = rho_energy(u, IDENT).value
            assert energy <= 0.5 / (1.0 + t0) + 1e-12

        # energy gain calibrated to pass at the earliest pulse
        gain = 1.1 * peaks[10.0] / (0.5 / 11.0)
        cert = Certificate(kind="iISS", beta=beta,
                           gamma=make_power_fn(gain, 1.0), rho=IDENT)
        family = InputFamilySpec(family="late_pulses",
                                 t0_values=(10.0, 100.0, 1000.0),
                                 xi_values=(0.0,), amplitude=0.5)
        rep = falsify(ce, cert, family, budget=10)
        assert rep.falsified
        assert {v["t0"] for v in rep.violations} == {100.0, 1000.0}

        # power-gain variant of the same family is defeated too
        gain_p = 1.1 * peaks[10.0] / (0.5 / 11.0)
        cert_p = Certificate(kind="IPSS", beta=beta,
                             gamma=make_power_fn(gain_p, 1.0), rho=IDENT, T=1.0)
        rep_p = falsify(ce, cert_p, family, budget=10)
        assert rep_p.falsified

        # constant inputs stay below their own level, same engine
        iss_cert = Certificate(kind="ISS", beta=beta, gamma=IDENT)
        const_family = InputFamilySpec(family="constants",
                                       t0_values=(0.0, 10.0, 100.0),
                                       xi_values=(0.0,), levels=(0.1, 1.0),
                                       horizon=10.0)
        rep_c = falsify(ce, iss_cert, const_family, budget=10,
                        tolerance=0.01)
        assert not rep_c.falsified


def test_criterion_6_pulse_train_norm_trichotomy():
    """One input: sup and energy diverge, sqrt-power stays bounded."""
    with _Criterion(6, "pulse-train norm trichotomy (count=50)", 5.0):
        u = pulse_train(1.0, 50)
        sqrt_fn = make_power_fn(1.0, 0.5)
        assert sup_norm(u).value == 2500.0
        assert rho_energy(u, sqrt_fn).value == pytest.approx(50.0, rel=1e-12)
        power = avg_power_norm(u, sqrt_fn, 2.0)
        brute = brute_force_avg_power(u, sqrt_fn, 2.0, step=1e-3)
        assert power.value == pytest.approx(brute, abs=1e-6)
        assert avg_power_norm(u, IDENT, 2.0).value >= 25.0


def test_criterion_7_converse_construction():
    """First-layer value, sandwich, decay, and layer bounds."""
    with _Criterion(7, "converse construction on the disturbed contraction", 120.0):
        theta1, theta2 = sontag_factorize_exponential(1.0, 0.5)
        dsys = DisturbedSystem(
            rhs_d=perturbed_decay_system().rhs, n=1, m=1,
            urgas_beta=KLBound(kind="exponential", K=1.0, lam=0.5),
        )
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 300)])
        rho = regularized_rho(theta2, grid)

        cfg64 = ConverseConfig(k_max=5, disturbance_samples=64,
                               pieces_per_horizon=8, sim_step=2e-3, seed=1)
        w1 = wk_estimates(dsys, [(0.0, [3.0])], theta1, rho, cfg64)[0][0]
        assert w1 == pytest.approx(1.75, rel=0.02)

        cfg = ConverseConfig(k_max=5, disturbance_samples=16,
                             pieces_per_horizon=6, sim_step=5e-3, seed=1)
        states = (0.5, 1.0, 3.0)
        for s, wk in zip(states, wk_estimates(dsys, [(0.0, [s]) for s in states],
                                              theta1, rho, cfg)):
            assert np.all(wk <= theta1.eval(s) + 1e-9)

        plan = ConverseProbePlan(states=(0.5, 1.0, 3.0), decay_horizon=4.0,
                                 decay_eval_points=4,
                                 constant_disturbances=(-1.0, 0.0, 1.0),
                                 lipschitz_pairs=6, slack=0.1, seed=2)
        ev = ConverseEvaluator(dsys, theta1, rho, cfg, build_mrk_table(dsys, theta1, cfg))
        report = check_converse_properties(ev, plan)
        assert report.sandwich_ok
        assert report.decay_ok


def test_criterion_8_dini_estimator_accuracy():
    """50 random smooth triples agree with the chain rule within 1e-4."""
    with _Criterion(8, "Dini estimator vs analytic derivative (50 triples)", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = 2
            A = rng.uniform(-0.5, 0.5, size=(n, n))
            B = rng.uniform(-0.5, 0.5, size=(n, 1))
            M = rng.uniform(-0.3, 0.3, size=(n, n))
            P = M @ M.T + 0.2 * np.eye(n)
            a = float(rng.uniform(-0.2, 0.2))
            w = float(rng.uniform(0.1, 0.5))
            t = float(rng.uniform(0.0, 2.0))
            x = rng.uniform(-1.0, 1.0, size=n)
            mu = rng.uniform(-0.5, 0.5, size=1)
            V = LyapunovCandidate(
                eval=lambda tt, xx, a=a, w=w, P=P: (1 + a * math.sin(w * tt))
                * float(np.atleast_1d(xx) @ P @ np.atleast_1d(xx)),
                alpha1=make_power_fn(1e-9, 2.0),
                alpha2=make_power_fn(10.0, 2.0),
            )
            sysd = SystemDef(rhs=lambda tt, xx, uu, A=A, B=B: A @ xx + B @ uu,
                             n=n, m=1)
            f = A @ x + B @ mu
            analytic = a * w * math.cos(w * t) * float(x @ P @ x) \
                + float((1 + a * math.sin(w * t)) * (2 * P @ x) @ f)
            est = dini_derivative(V, sysd, t, x, mu, 1e-3, 8)
            assert est == pytest.approx(analytic, abs=1e-4)


def test_criterion_9_solution_sensitivity_probe():
    """The disturbed contraction never amplifies initial separations."""
    with _Criterion(9, "solution-sensitivity probe (100 seeded samples)", 30.0):
        rep = lipschitz_probes(perturbed_decay_system(), [(2.0, 2.0, 100, 9)], step=2e-3)[0]
        assert rep.n_blowups == 0
        assert rep.state_ratio_max <= 1.0 + 1e-6


def test_criterion_10_dissipation_implies_implication():
    """Derived implication pair passes wherever the dissipation pair does."""
    with _Criterion(10, "dissipation-to-implication consistency", 30.0):
        plan = make_plan(1, 1, times=[0.0, 1.0, 10.0],
                         radii=np.geomspace(1e-2, 10.0, 6), dirs_per_radius=2,
                         mu_radii=np.geomspace(0.1, 5.0, 3),
                         mu_dirs_per_radius=2, seed=3)
        quad = LyapunovCandidate(
            eval=lambda t, x: float(np.dot(np.atleast_1d(x), np.atleast_1d(x))),
            alpha1=make_power_fn(1.0, 2.0), alpha2=make_power_fn(1.0, 2.0))
        cases = [
            (linear_test_system(1.0), abs_candidate(), IDENT, IDENT),
            (linear_test_system(2.0), abs_candidate(), IDENT, IDENT),
            (linear_test_system(2.0), abs_candidate(), scale_fn(IDENT, 2.0), IDENT),
            (linear_test_system(1.0), quad, make_power_fn(1.0, 2.0),
             make_power_fn(4.0, 2.0)),
            (counterexample_system(), abs_candidate(), IDENT, IDENT),
        ]
        n_checked_pairs = 0
        for sysd, V, alpha4, chi4 in cases:
            spec = DissipationSpec(alpha4=alpha4, chi4=chi4)
            diss = check_derivative_bound(V, sysd, spec.alpha4, spec.chi4, plan, margin=1e-3)
            if not diss.passed:
                continue
            n_checked_pairs += 1
            chi3 = compose(inverse_fn(alpha4), scale_fn(chi4, 2.0))
            alpha3 = scale_fn(alpha4, 0.5)
            impl = check_implication_form(V, sysd, alpha3, chi3, plan,
                                          margin=1e-3)
            assert impl.passed, f"implication failed for {sysd.name}"
        assert n_checked_pairs >= 3  # the consistency claim is not vacuous
