"""Dini estimation, form checks, and the kappa rescaling pipeline."""

import math

import numpy as np
import pytest

from ipss_lab.comparison_functions import (
    MonotoneFn,
    apply_inverse,
    compose,
    identity_fn,
    inverse_fn,
    make_power_fn,
    scale_fn,
)
import ipss_lab.lyapunov_tools as lt
from ipss_lab.cli_harness import _build_candidate
from ipss_lab.errors import CandidateError, NumericsError, ParameterError, PlanError, RangeError
from ipss_lab.lyapunov_tools import (
    DissipationSpec,
    LyapunovCandidate,
    ViolationReport,
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


# ---------------------------------------------------------------------------
# the array pass against the per-sample loop it replaced


def _dini_reference(V, sys, t, xi, mu, h0, levels):
    """The per-sample Dini estimate the array pass replaced, kept verbatim as its reference."""
    xi = np.asarray(xi, dtype=float).reshape(sys.n)
    mu = np.asarray(mu, dtype=float).reshape(sys.m)
    fval = np.asarray(sys.rhs(t, xi, mu), dtype=float)
    v0 = float(V.eval(t, xi))
    if not math.isfinite(v0):
        raise CandidateError(f"candidate evaluation is nonfinite at ({t}, {xi})")
    quotients = []
    for j in range(levels):
        h = h0 * (2.0 ** (-j))
        v1 = float(V.eval(t + h, xi + h * fval))
        if not math.isfinite(v1):
            raise CandidateError(f"candidate evaluation is nonfinite at ({t + h}, {xi + h * fval})")
        quotients.append((v1 - v0) / h)
    tail = math.ceil(levels / 2)
    return max(quotients[levels - tail:])


def _run_check_reference(V, sys, plan, rhs_bound, margin, condition=None):
    """The per-sample loop of the sampled checks, kept verbatim as the array pass's reference."""
    violations = []
    checked = 0
    for t in plan.times:
        for xi in plan.states:
            for mu in plan.inputs:
                xi_a = np.asarray(xi)
                mu_a = np.asarray(mu)
                if condition is not None and not condition(xi_a, mu_a):
                    continue
                checked += 1
                lhs = _dini_reference(V, sys, t, xi_a, mu_a, plan.h0, plan.levels)
                rhs = rhs_bound(xi_a, mu_a)
                gap = lhs - rhs
                tol = float(margin) if margin is not None else 1e-3 * (1.0 + abs(lhs))
                if gap > tol:
                    violations.append({
                        "t": float(t),
                        "xi": [float(v) for v in xi],
                        "mu": [float(v) for v in mu],
                        "lhs": float(lhs),
                        "rhs": float(rhs),
                        "gap": float(gap),
                    })
    return ViolationReport(entries=tuple(violations), n_checked=checked)


def _reference_report(form, V, sysd, alpha, chi, plan, margin):
    """``_run_check_reference`` with the bounds of ``check_derivative_bound`` or ``check_implication_form``."""
    def norm(v):
        return float(lt._norms(v))

    if form == "implication":
        return _run_check_reference(
            V, sysd, plan, lambda xi, mu: -float(alpha.eval(norm(xi))), margin,
            lambda xi, mu: norm(xi) >= float(chi.eval(norm(mu))))
    return _run_check_reference(
        V, sysd, plan, lambda xi, mu: -float(alpha.eval(norm(xi))) + float(chi.eval(norm(mu))),
        margin)


def _assert_same_report(form, V, sysd, alpha, chi, plan, margin):
    """The array pass's report equals the reference's bit for bit; returns it."""
    check = check_implication_form if form == "implication" else check_derivative_bound
    rep = check(V, sysd, alpha, chi, plan, margin)
    ref = _reference_report(form, V, sysd, alpha, chi, plan, margin)
    assert rep.n_checked == ref.n_checked
    assert repr(rep.to_json()) == repr(ref.to_json())  # repr keeps every bit, and -0.0
    return rep


def _criterion_8_triple(rng, rowwise):
    """One random triple of acceptance criterion 8 (n = 2, m = 1), as scalar or row-wise code.

    The row-wise forms use elementwise arithmetic only, and a rational time
    factor, so a row gives the same float alone and in a stack.
    """
    A = rng.uniform(-0.5, 0.5, size=(2, 2))
    B = rng.uniform(-0.5, 0.5, size=(2, 1))
    M = rng.uniform(-0.3, 0.3, size=(2, 2))
    P = M @ M.T + 0.2 * np.eye(2)
    a = float(rng.uniform(-0.2, 0.2))
    w = float(rng.uniform(0.1, 0.5))
    if not rowwise:  # verbatim from criterion 8: fails the row-wise check
        V = LyapunovCandidate(
            eval=lambda tt, xx: (1 + a * math.sin(w * tt))
            * float(np.atleast_1d(xx) @ P @ np.atleast_1d(xx)),
            alpha1=make_power_fn(1e-9, 2.0), alpha2=make_power_fn(10.0, 2.0))
        return V, SystemDef(rhs=lambda tt, xx, uu: A @ xx + B @ uu, n=2, m=1)

    def v_eval(tt, xx):
        x0, x1 = xx[..., 0], xx[..., 1]
        quad = x0 * (P[0, 0] * x0 + P[0, 1] * x1) + x1 * (P[1, 0] * x0 + P[1, 1] * x1)
        return (1 + a * w * tt / (1 + tt)) * quad

    def rhs(tt, xx, uu):
        x0, x1, u0 = xx[..., 0], xx[..., 1], uu[..., 0]
        return np.stack([A[0, 0] * x0 + A[0, 1] * x1 + B[0, 0] * u0,
                         A[1, 0] * x0 + A[1, 1] * x1 + B[1, 0] * u0], axis=-1)

    V = LyapunovCandidate(eval=v_eval, alpha1=make_power_fn(1e-9, 2.0),
                          alpha2=make_power_fn(10.0, 2.0))
    return V, SystemDef(rhs=rhs, n=2, m=1)


def _spy(fn, log):
    """``fn``, logging whether each call got an array of times."""
    def spied(t, *rest):
        log.append(np.ndim(t) > 0)
        return fn(t, *rest)
    return spied


QUADRATIC = _build_candidate({"kind": "quadratic", "c": 1.5})
RAMP_PLAN = make_plan(1, 1, times=[0.0, 10.0, 100.0], radii=np.geomspace(1e-2, 10.0, 5),
                      dirs_per_radius=2, mu_radii=np.geomspace(0.1, 5.0, 3),
                      mu_dirs_per_radius=2, seed=5)


class TestArrayPassMatchesReference:
    @pytest.mark.parametrize("margin", [None, 1e-3])
    @pytest.mark.parametrize("V", [abs_candidate(), QUADRATIC], ids=["abs", "quadratic"])
    @pytest.mark.parametrize("sysd,plan", [(linear_test_system(1.0), small_plan()),
                                           (counterexample_system(), RAMP_PLAN)],
                             ids=["linear", "counterexample"])
    def test_dissipation_reports(self, V, sysd, plan, margin):
        # doubled decay fails near u = 0 on both systems, the ramp fails at late t
        failing = _assert_same_report("dissipation", V, sysd, make_power_fn(2.0, 1.0), IDENT,
                                      plan, margin)
        assert not failing.passed
        _assert_same_report("dissipation", V, sysd, IDENT, IDENT, plan, margin)

    @pytest.mark.parametrize("margin", [None, 1e-3])
    @pytest.mark.parametrize("V", [abs_candidate(), QUADRATIC], ids=["abs", "quadratic"])
    def test_implication_mask(self, V, margin):
        """Samples with |x| < chi3(|u|) are skipped; the kept ones partly fail."""
        plan = small_plan()
        rep = _assert_same_report("implication", V, counterexample_system(),
                                  make_power_fn(3.0, 1.0), make_power_fn(0.5, 1.0), plan, margin)
        total = len(plan.times) * len(plan.states) * len(plan.inputs)
        assert 0 < rep.n_checked < total
        assert not rep.passed

    @pytest.mark.parametrize("rowwise", [True, False], ids=["rowwise", "scalar"])
    @pytest.mark.parametrize("margin", [None, 1e-6])
    def test_time_varying_n2_candidate(self, rowwise, margin):
        """Criterion-8 triples on a 2-D plan, through the array path and the fallback."""
        rng = np.random.default_rng(2024)
        plan = make_plan(2, 1, times=[0.0, 0.5, 2.0], radii=[0.1, 0.5, 1.0], dirs_per_radius=3,
                         mu_radii=[0.2, 0.5], mu_dirs_per_radius=2, seed=11)
        failed = 0
        for _ in range(5):
            V, sysd = _criterion_8_triple(rng, rowwise)
            rep = _assert_same_report("dissipation", V, sysd, make_power_fn(0.5, 2.0),
                                      make_power_fn(0.1, 2.0), plan, margin)
            failed += not rep.passed
        assert failed > 0

    def test_fallback_when_v_and_rhs_fail_the_row_check(self):
        """Scalar-only code is called row by row inside the same pass, with float times."""
        v_log, rhs_log = [], []
        V = LyapunovCandidate(eval=_spy(lambda t, x: float(abs(x[0])) * (1.0 + 0.01 * t), v_log),
                              alpha1=IDENT, alpha2=make_power_fn(2.0, 1.0))
        sysd = SystemDef(rhs=_spy(lambda t, x, u: np.array([-x[0] + u[0] * (1.0 + t)]), rhs_log),
                         n=1, m=1)
        plan = small_plan()
        _assert_same_report("dissipation", V, sysd, make_power_fn(2.0, 1.0), IDENT, plan, None)
        v_log.clear(), rhs_log.clear()
        check_derivative_bound(V, sysd, make_power_fn(2.0, 1.0), IDENT, plan, None)
        # one batched try each in the row check; every other call is one row
        assert sum(v_log) == 1 and sum(rhs_log) == 1
        n = len(plan.times) * len(plan.states) * len(plan.inputs)
        assert len(v_log) == 1 + 3 + n * (plan.levels + 1)
        assert len(rhs_log) == 1 + 3 + n

    def test_rowwise_code_is_called_once_per_level(self):
        v_log, rhs_log = [], []
        base = abs_candidate()
        V = LyapunovCandidate(eval=_spy(base.eval, v_log), alpha1=IDENT, alpha2=IDENT)
        lin = linear_test_system(1.0)
        sysd = SystemDef(rhs=_spy(lin.rhs, rhs_log), n=1, m=1)
        plan = small_plan()
        _assert_same_report("dissipation", V, sysd, make_power_fn(2.0, 1.0), IDENT, plan, None)
        v_log.clear(), rhs_log.clear()
        check_derivative_bound(V, sysd, make_power_fn(2.0, 1.0), IDENT, plan, None)
        # the row check: 3 row calls and 1 stacked; then 1 rhs and levels + 1 V calls on all rows
        assert v_log == [False] * 3 + [True] * (1 + 1 + plan.levels)
        assert rhs_log == [False] * 3 + [True] * 2

    @pytest.mark.parametrize("bad", ["at_level", "at_sample"])
    def test_nonfinite_candidate_names_first_sample(self, bad):
        """The CandidateError names the sample the per-sample loop stopped at, in plan order."""
        def v_eval(t, x):
            r = lt._norms(x)
            if bad == "at_level":  # finite at every plan time, nonfinite just past t = 1
                return np.where((t > 1.0) & (t < 2.0), np.nan, r)
            return np.where(r > 2.0, np.inf, r)

        V = LyapunovCandidate(eval=v_eval, alpha1=IDENT, alpha2=IDENT)
        sysd, plan = linear_test_system(1.0), small_plan()
        with pytest.raises(CandidateError) as ref:
            _reference_report("dissipation", V, sysd, IDENT, IDENT, plan, 1e-3)
        with pytest.raises(CandidateError) as new:
            check_derivative_bound(V, sysd, IDENT, IDENT, plan, 1e-3)
        assert str(new.value) == str(ref.value)
        assert ("(1.001, " in str(new.value)) == (bad == "at_level")

    def test_dini_derivative_is_the_pass_for_one_sample(self):
        sysd = counterexample_system()
        for V in (abs_candidate(), QUADRATIC, quadratic_candidate()):
            for t, x, u in [(0.0, [0.3], [0.5]), (10.0, [-2.0], [1.0]), (3.0, [0.0], [0.0])]:
                assert repr(dini_derivative(V, sysd, t, x, u)) \
                    == repr(_dini_reference(V, sysd, t, x, u, 1e-3, 8))


@pytest.fixture(scope="module")
def bundle():
    return build_kappa(IDENT, (1e-3, 1e3), 1e-10)


@pytest.fixture(scope="module")
def gains(bundle):
    spec = DissipationSpec(alpha4=IDENT, chi4=IDENT)
    return ipss_gains_from_dissipation(IDENT, IDENT, spec, 1.0, bundle)


class TestKappaBundle:

    def test_a_table_matches_closed_form(self, bundle):
        """For the identity gauge, a(tau) = log(1 + tau^2) / pi exactly.

        For sigma = 2 s^2, whose kink of min(s, sigma(s)) at s = 1/2 falls
        inside a cell, a(tau) = (4/pi) (tau - atan tau) up to 1/2 and
        (2/pi) [2 (1/2 - atan 1/2) + ln((1 + tau^2) / 1.25) / 2] above.
        """
        exact = np.log1p(bundle.qs ** 2) / math.pi
        assert np.max(np.abs(bundle.a_vals - exact) / exact) < 1e-8

        kinked = build_kappa(make_power_fn(2.0, 2.0), (1e-3, 1e3), 1e-10)
        tau = kinked.qs
        # tau - atan tau by its series below 1/4, where the difference cancels
        k = np.arange(1, 21)[:, None]
        series = np.sum((-1.0) ** (k + 1) * tau ** (2 * k + 1) / (2 * k + 1), axis=0)
        tau_minus_atan = np.where(tau < 0.25, series, tau - np.arctan(tau))
        exact = np.where(tau <= 0.5, 4.0 / math.pi * tau_minus_atan,
                         2.0 / math.pi * (2.0 * (0.5 - math.atan(0.5))
                                          + 0.5 * np.log((1.0 + tau ** 2) / 1.25)))
        assert np.max(np.abs(kinked.a_vals - exact) / exact) < 1e-12

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

    def test_unreachable_tolerance_and_nan_gauge_raise(self):
        """A tolerance below rounding, or a nan integrand, fails every halving;
        both must raise instead of refining without end."""
        with pytest.raises(NumericsError, match="quadrature stalled on"):
            build_kappa(IDENT, (0.3, 10.0), 1e-300)
        nan_above_2 = MonotoneFn(eval=lambda s: np.where(s > 2.0, np.nan, s), class_tag="Kinf")
        with pytest.raises(NumericsError, match="nonpositive or nan"):
            build_kappa(nan_above_2, (0.3, 10.0), 1e-10)

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
        pairs = [
            (bundle.a_fn.eval(q), clone.a_fn.eval(q)),
            (ln_k, clone.ln_kappa_at(q)),
            (bundle.kappa.derivative(q), clone.kappa.derivative(q)),
            (bundle.kappa_inv_ln(ln_k), clone.kappa_inv_ln(ln_k)),
        ]
        for built, reloaded in pairs:
            assert built.shape == q.shape
            assert built.tobytes() == reloaded.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kappa_prime_is_zero_at_zero_and_below_the_floor(self, bundle):
        """kappa'(0) was 2 kappa / a = 0/0, nan with a RuntimeWarning."""
        assert bundle.kappa.derivative(np.array([0.0, 1e-5])).tolist() == [0.0, 0.0]
        assert bundle.kappa.derivative(0.0) == 0.0

    def test_equality_of_bundles_is_a_bool(self, bundle):
        """The generated __eq__ compared the tables as arrays and raised ValueError."""
        clone = kappa_bundle_from_json(kappa_bundle_to_json(bundle))
        assert (bundle == clone) is False
        assert (bundle == bundle) is True

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

    def test_gamma_carries_no_inverse(self, gains):
        """Inverting the synthesized gain raises; there is no numeric fallback."""
        _, gamma, _ = gains
        with pytest.raises(ParameterError, match="carries no inverse"):
            apply_inverse(gamma, 1.0)
        with pytest.raises(ParameterError, match="carries no inverse"):
            inverse_fn(gamma)

    def test_rho_vanishes_at_zero_and_grows(self, gains):
        _, _, rho = gains
        assert rho.eval(0.0) == 0.0
        vals = [rho.eval(s) for s in np.geomspace(0.01, 10.0, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
