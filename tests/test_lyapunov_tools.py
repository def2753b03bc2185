"""Dini estimation, form checks, and the kappa rescaling pipeline."""

import math

import numpy as np
import pytest

from ipss_lab.comparison_functions import (
    compose,
    identity_fn,
    inverse_fn,
    make_power_fn,
    scale_fn,
)
from ipss_lab.errors import ParameterError, PlanError, RangeError
from ipss_lab.lyapunov_tools import (
    DissipationSpec,
    LyapunovCandidate,
    abs_candidate,
    build_kappa,
    check_derivative_bound,
    check_implication_form,
    dini_derivative,
    ipss_gains_from_dissipation,
    kappa_bundle_from_json,
    kappa_bundle_to_json,
    make_plan,
)
from ipss_lab.simulator import SystemDef, counterexample_system, linear_test_system

IDENT = identity_fn()


def quadratic_candidate():
    return LyapunovCandidate(
        eval=lambda t, x: float(np.dot(np.atleast_1d(x), np.atleast_1d(x))),
        alpha1=make_power_fn(1.0, 2.0),
        alpha2=make_power_fn(1.0, 2.0),
    )


class TestDiniDerivative:
    def test_quadratic_on_decay(self):
        """V = x^2 along xdot = -x at x=1 gives 2x*(-x) = -2."""
        d = dini_derivative(quadratic_candidate(), linear_test_system(1.0),
                            0.0, [1.0], [0.0], 1e-3, 8)
        assert d == pytest.approx(-2.0, abs=1e-4)

    def test_stationary_point(self):
        d = dini_derivative(abs_candidate(), linear_test_system(1.0),
                            0.0, [0.0], [0.0])
        assert d == 0.0

    def test_time_varying_candidate(self):
        """V = e^{-t} x^2 along xdot = -x at (0,1): -1 - 2 = -3.

        The tail-max surrogate carries a positive bias of about
        3.5 * h_tail = 2.2e-4 here (the quotient expands as -3 + 3.5h),
        so the frozen tolerance reflects the estimator, not the limit.
        """
        V = LyapunovCandidate(
            eval=lambda t, x: math.exp(-t) * float(x[0] ** 2),
            alpha1=make_power_fn(1e-9, 2.0),
            alpha2=make_power_fn(1.0, 2.0),
        )
        sysd = SystemDef(rhs=lambda t, x, u: -x, n=1, m=1)
        d = dini_derivative(V, sysd, 0.0, [1.0], [0.0], 1e-3, 8)
        assert d == pytest.approx(-3.0, abs=3e-4)
        assert d >= -3.0  # upper surrogate never undershoots here

    def test_agrees_with_analytic_chain_rule(self, rng):
        """Random smooth quadratic triples match d/dt + grad.f to 1e-4."""
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


def small_plan(seed=3):
    return make_plan(1, 1, times=[0.0, 1.0, 10.0],
                     radii=np.geomspace(1e-2, 10.0, 6), dirs_per_radius=2,
                     mu_radii=np.geomspace(0.1, 5.0, 3), mu_dirs_per_radius=2,
                     seed=seed)


class TestFormChecks:
    def test_linear_dissipation_passes(self):
        spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
        rep = check_derivative_bound(abs_candidate(), linear_test_system(1.0),
                                     spec.alpha4, spec.chi4, small_plan(), margin=1e-3)
        assert rep.passed

    def test_doubled_decay_fails(self):
        spec = DissipationSpec(alpha4=make_power_fn(2.0, 1.0), chi4=IDENT)
        rep = check_derivative_bound(abs_candidate(), linear_test_system(1.0),
                                     spec.alpha4, spec.chi4, small_plan(), margin=1e-3)
        assert not rep.passed
        worst = rep.entries[0]
        assert worst["gap"] > 0

    def test_ramp_gain_system_has_no_dissipation_form(self):
        """The (1+t) input ramp defeats any fixed gain pair at large t."""
        plan = make_plan(1, 1, times=[0.0, 10.0, 100.0, 1000.0],
                         radii=np.geomspace(1e-2, 10.0, 5), dirs_per_radius=2,
                         mu_radii=np.geomspace(0.1, 5.0, 3), mu_dirs_per_radius=2,
                         seed=5)
        spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
        rep = check_derivative_bound(abs_candidate(), counterexample_system(),
                                     spec.alpha4, spec.chi4, plan, margin=1e-3)
        assert not rep.passed

    def test_dissipation_implies_implication(self):
        """Passing (a4, c4) forces passing (a4/2, a4^{-1}(2 c4)) restricted."""
        sysd = linear_test_system(1.0)
        plan = small_plan()
        spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
        assert check_derivative_bound(abs_candidate(), sysd, spec.alpha4, spec.chi4,
                                      plan, margin=1e-3).passed
        chi3 = compose(inverse_fn(IDENT), scale_fn(IDENT, 2.0))
        alpha3 = scale_fn(IDENT, 0.5)
        assert check_implication_form(abs_candidate(), sysd, alpha3, chi3,
                                      plan, margin=1e-3).passed

    def test_iiss_form_shares_contract(self):
        rep = check_derivative_bound(abs_candidate(), linear_test_system(1.0),
                                     IDENT, IDENT, small_plan(), margin=1e-3)
        assert rep.passed

    def test_plan_on_discontinuity_rejected(self):
        sysd = SystemDef(rhs=lambda t, x, u: -x, n=1, m=1,
                         discontinuity_times=(1.0,))
        with pytest.raises(PlanError):
            check_derivative_bound(abs_candidate(), sysd, IDENT, IDENT,
                                   small_plan(), margin=1e-3)

    def test_report_json_shape(self):
        spec = DissipationSpec(alpha4=make_power_fn(2.0, 1.0), chi4=IDENT)
        rep = check_derivative_bound(abs_candidate(), linear_test_system(1.0),
                                     spec.alpha4, spec.chi4, small_plan(), margin=1e-3)
        entry = rep.to_json()[0]
        assert set(entry) == {"t", "xi", "mu", "lhs", "rhs", "gap"}


@pytest.fixture(scope="module")
def bundle():
    return build_kappa(IDENT, (1e-3, 1e3), 1e-10)


@pytest.fixture(scope="module")
def gains(bundle):
    spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
    return ipss_gains_from_dissipation(IDENT, IDENT, spec, 1.0, bundle)


class TestKappaBundle:

    def test_a_table_matches_closed_form(self, bundle):
        """For the identity gauge, a(tau) = log(1 + tau^2) / pi exactly."""
        exact = np.log1p(bundle.qs ** 2) / math.pi
        assert np.max(np.abs(bundle.a_vals - exact) / exact) < 1e-8

    def test_kappa_at_one_is_exactly_one(self, bundle):
        assert bundle.kappa.eval(1.0) == 1.0

    def test_kappa_strictly_increasing(self, bundle):
        assert np.all(np.diff(bundle.ln_kappa) > 0)

    def test_kappa_prime_nondecreasing_on_grid(self, bundle):
        kp = 2.0 * np.exp(bundle.ln_kappa) / bundle.a_vals
        finite = np.isfinite(kp) & (kp > 0)
        assert np.all(np.diff(kp[finite]) >= 0)

    def test_growth_inequality(self, bundle):
        """kappa' * sigma >= 2 * kappa, checked as sigma >= a without underflow."""
        pts = np.geomspace(1e-3, 1e3, 200)
        sigma_vals = pts  # identity gauge
        a_vals = np.asarray(bundle.a_fn.eval(pts))
        assert np.all(sigma_vals >= a_vals * (1.0 - 1e-6))

    def test_inverse_round_trip_on_grid(self, bundle):
        """Representable grid points invert back within 1e-6 relative."""
        mask = bundle.ln_kappa > -700.0
        qs = bundle.qs[mask]
        for q in qs[:: max(1, qs.size // 100)]:
            y = bundle.kappa.eval(float(q))
            assert bundle.kappa_inv(y) == pytest.approx(float(q), rel=1e-6)

    def test_log_space_round_trip_on_full_grid(self, bundle):
        for q in bundle.qs[:: max(1, bundle.qs.size // 100)]:
            ln_y = bundle.ln_kappa_at(float(q))
            assert bundle.kappa_inv(math.exp(max(ln_y, -700.0))) > 0 or ln_y < -700.0

    def test_range_errors_name_extension(self, bundle):
        with pytest.raises(RangeError, match="q_max"):
            bundle.kappa.eval(5e3)
        with pytest.raises(RangeError, match="q_max"):
            bundle.kappa_inv(math.exp(bundle.ln_kappa[-1] + 10.0))
        # deep attenuation floor is only reachable for a narrow table
        narrow = build_kappa(IDENT, (0.3, 10.0), 1e-10)
        with pytest.raises(RangeError, match="q_min"):
            narrow.kappa_inv(math.exp(narrow.ln_kappa[0] - 200.0))

    def test_inverse_takes_any_array_shape(self, bundle):
        qs, ts = np.meshgrid(np.geomspace(1e-2, 1e2, 7), np.linspace(0.0, 8.0, 5))
        ys = np.asarray(bundle.kappa.eval(qs)) * np.exp(-ts)
        q_inv = bundle.kappa_inv(ys)
        assert q_inv.shape == ys.shape
        assert np.array_equal(q_inv, [[bundle.kappa_inv(float(y)) for y in row] for row in ys])
        assert bundle.kappa_inv(np.zeros((2, 3))).tolist() == [[0.0] * 3] * 2
        with pytest.raises(RangeError, match="larger q_max than 1.000e"):
            bundle.kappa_inv(np.full((2, 2), math.exp(bundle.ln_kappa[-1] + 10.0)))
        narrow = build_kappa(IDENT, (0.3, 10.0), 1e-10)
        with pytest.raises(RangeError, match="rebuild the bundle with q_min <= "):
            narrow.kappa_inv(np.full((2, 2), math.exp(narrow.ln_kappa[0] - 200.0)))

    def test_log_form_inverts_below_the_smallest_float(self, bundle):
        """ln kappa(1e-3) is about -6280; kappa itself underflows to 0 there."""
        q = np.array([1e-4, 1e-3, 5e-3])
        ln_y = bundle.ln_kappa_at(q)
        assert np.all(np.asarray(bundle.kappa.eval(q)) == 0.0)
        np.testing.assert_allclose(bundle.kappa_inv_ln(ln_y), q, rtol=1e-9)
        assert bundle.kappa_inv_ln(-math.inf) == 0.0

    def test_invalid_q_range_rejected(self):
        with pytest.raises(ParameterError):
            build_kappa(IDENT, (0.5, 0.9))

    def test_ln_kappa_beyond_q_max_names_the_rebuild_range(self, bundle):
        with pytest.raises(RangeError, match=r"rebuild the bundle with q_max >= 2\.000e\+03"):
            bundle.ln_kappa_at(2e3)
        with pytest.raises(RangeError, match=r"rebuild the bundle with q_max >= 2\.000e\+03"):
            bundle.ln_kappa_at(np.array([1.0, 2e3]))

    def test_json_round_trip_evaluates_identically(self, bundle):
        clone = kappa_bundle_from_json(kappa_bundle_to_json(bundle))
        for q in np.geomspace(1e-2, 1e3, 50):
            assert clone.kappa.eval(float(q)) == bundle.kappa.eval(float(q))
            assert clone.kappa_inv(bundle.kappa.eval(float(q))) == \
                bundle.kappa_inv(bundle.kappa.eval(float(q)))
        # one array call each: 0, the one-decade floor region, the nodes, q_max
        floor = np.geomspace(bundle.q_min / 10, bundle.q_min, 9, endpoint=False)
        q = np.concatenate([[0.0], floor, bundle.qs, [bundle.q_max]])
        ln_k = bundle.ln_kappa_at(q)
        with np.errstate(invalid="ignore"):  # kappa'(0) is 0/0
            pairs = [
                (bundle.a_fn.eval(q), clone.a_fn.eval(q)),
                (ln_k, clone.ln_kappa_at(q)),
                (bundle.kappa.derivative(q), clone.kappa.derivative(q)),
                (bundle.kappa_inv_ln(ln_k), clone.kappa_inv_ln(ln_k)),
            ]
        for built, reloaded in pairs:
            assert built.shape == q.shape
            assert built.tobytes() == reloaded.tobytes()

    def test_ln_kappa_matches_scalar_gauss_legendre_reference(self, bundle):
        """The build against a per-cell scalar reference: 8-point Gauss-Legendre
        of 2 tau / a(tau) over each cell in ln tau, with a(tau) interpolated
        log-log from the a table, summed cell by cell outward from q = 1."""
        ln_q = np.log(bundle.qs)
        ln_a = np.log(bundle.a_vals)
        nodes, weights = np.polynomial.legendre.leggauss(8)

        def cell(la, lb):
            half = 0.5 * (lb - la)
            lqs = 0.5 * (la + lb) + half * nodes
            return half * sum(w * 2.0 * math.exp(lq) / math.exp(float(np.interp(lq, ln_q, ln_a)))
                              for lq, w in zip(lqs, weights))

        one = int(np.flatnonzero(bundle.qs == 1.0)[0])
        ref = np.zeros_like(ln_q)
        for i in range(one, ln_q.size - 1):
            ref[i + 1] = ref[i] + cell(ln_q[i], ln_q[i + 1])
        for i in range(one, 0, -1):
            ref[i - 1] = ref[i] - cell(ln_q[i - 1], ln_q[i])
        np.testing.assert_allclose(bundle.ln_kappa, ref, rtol=1e-12, atol=0.0)


class TestGainSynthesis:
    def test_beta_dominates_initial_state(self, gains):
        beta, _, _ = gains
        for s in np.geomspace(1e-2, 50.0, 30):
            assert float(beta.eval(s, 0.0)) >= s

    def test_beta_dominates_identity_down_to_table_floor(self, gains, bundle):
        """kappa(alpha2(s)) underflows for s below 0.0084; beta gave 0 there."""
        beta, _, _ = gains
        s = np.geomspace(bundle.q_min / 10, 1e-2, 40)
        assert np.all(np.asarray(beta.eval(s, np.zeros_like(s))) >= s)
        assert beta.eval(0.0, 3.0) == 0.0

    def test_beta_below_table_floor_names_q_min(self, gains):
        beta, _, _ = gains
        with pytest.raises(RangeError, match=r"rebuild the bundle with q_min <= 5\.000e-05"):
            beta.eval(5e-5, 0.0)

    def test_beta_long_time_value(self, gains):
        """Frozen from an independent quadrature + bisection oracle.

        The attenuation kappa^{-1}(2 e^{-50}) contracts slowly (the inverse
        map is roughly 2*pi/|log| near zero), giving 0.118643, not anything
        exponentially small.
        """
        beta, _, _ = gains
        assert float(beta.eval(1.0, 50.0)) == pytest.approx(0.118643, rel=1e-3)

    def test_beta_decreasing_in_time(self, gains):
        beta, _, _ = gains
        vals = [float(beta.eval(1.0, t)) for t in np.linspace(0.0, 50.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gamma_vanishes_at_zero(self, gains):
        _, gamma, _ = gains
        assert gamma.eval(0.0) == 0.0

    def test_rho_vanishes_at_zero_and_grows(self, gains):
        _, _, rho = gains
        assert rho.eval(0.0) == 0.0
        vals = [rho.eval(s) for s in np.geomspace(0.01, 10.0, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
