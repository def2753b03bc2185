"""Sampled converse construction: regularization, layers, properties."""

import math

import numpy as np
import pytest

from ipss_lab.comparison_functions import (
    KLBound,
    identity_fn,
    make_power_fn,
    make_table_fn,
    sontag_factorize_exponential,
)
from ipss_lab.converse_construction import (
    ConverseConfig,
    ConverseEvaluator,
    ConverseProbePlan,
    DisturbedSystem,
    build_mrk_table,
    candidate_table_from_json,
    candidate_table_to_json,
    check_converse_properties,
    disturbance_batch,
    horizon_for,
    iss_to_dissipation_candidate,
    regularized_rho,
    wk_estimate,
)
from ipss_lab.errors import ModelError
from ipss_lab.lyapunov_tools import (
    DissipationSpec,
    check_derivative_bound,
    make_plan,
)
from ipss_lab.signals import constant_signal
from ipss_lab.simulator import linear_test_system, perturbed_decay_system, simulate

THETA1, THETA2 = sontag_factorize_exponential(1.0, 0.5)
RHO_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 300)])


@pytest.fixture(scope="module")
def rho():
    return regularized_rho(THETA2, RHO_GRID)


@pytest.fixture(scope="module")
def decay_system():
    return DisturbedSystem(
        rhs_d=perturbed_decay_system().rhs, n=1, m=1,
        urgas_beta=KLBound(kind="exponential", K=1.0, lam=0.5),
    )


@pytest.fixture(scope="module")
def cfg():
    return ConverseConfig(k_max=5, disturbance_samples=64,
                          pieces_per_horizon=8, sim_step=2e-3, seed=1)


@pytest.fixture(scope="module")
def cfg_small():
    return ConverseConfig(k_max=5, disturbance_samples=16,
                          pieces_per_horizon=6, sim_step=5e-3, seed=1)


@pytest.fixture(scope="module")
def mrk_small(decay_system, cfg_small):
    return build_mrk_table(decay_system, THETA1, cfg_small)


class TestRegularizedRho:
    def test_closed_form_for_sqrt_factor(self, rho):
        """inf_r { r^2 + |r-s| } is s^2 below 1/2 and s - 1/4 above."""
        assert rho.eval(0.25) == pytest.approx(0.0625, abs=1e-4)
        assert rho.eval(0.5) == pytest.approx(0.25, abs=1e-4)
        assert rho.eval(1.0) == pytest.approx(0.75, abs=1e-9)
        assert rho.eval(3.0) == pytest.approx(2.75, abs=1e-9)

    def test_identity_factor_is_fixed_point(self):
        r = regularized_rho(identity_fn(), RHO_GRID)
        for s in (0.1, 1.0, 5.0):
            assert r.eval(s) == pytest.approx(s, abs=1e-8)

    def test_vanishes_at_zero(self, rho):
        assert rho.eval(0.0) == 0.0

    def test_exact_on_a_factor_with_several_basins(self):
        """psi = theta2^{-1} - id dips at 3.82 and deeper at 9, so a search on
        all of [0, s] could stop in the first basin: it gave rho(10) = 9.0,
        not s + min psi = 8.0, with node slopes up to 2."""
        kinks = np.array([0.0, 3.82, 6.18, 9.0, 12.0])
        theta2 = make_table_fn([0.0, 3.32, 6.68, 7.0, 13.0], kinks)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 12.0, 120)])
        r = regularized_rho(theta2, grid)

        def psi(v):
            return np.asarray(theta2.inverse(v)) - v

        # psi is piecewise linear, so its minimum over [0, s] sits at a kink or at s
        exact = np.array([s + np.min(psi(np.append(kinks[kinks <= s], s))) for s in grid])
        vals = np.asarray(r.eval(grid))
        np.testing.assert_allclose(vals, exact, rtol=0.0, atol=1e-9)
        assert np.max(np.diff(vals) / np.diff(grid)) <= 1.0 + 1e-9

    def test_unit_lipschitz_and_minorant_on_grid(self, rho):
        xs = RHO_GRID[1:]
        vals = np.asarray(rho.eval(xs))
        slopes = np.diff(vals) / np.diff(xs)
        assert np.max(slopes) <= 1.0 + 1e-9
        assert np.all(vals <= xs ** 2 + 1e-9)  # theta2^{-1}(s) = s^2 at nodes


class TestWkEstimate:
    def test_small_state_gives_zero_layer(self, decay_system, rho, cfg):
        """rho(1) = 3/4 < 1 keeps the first layer silent from |xi| = 1."""
        assert wk_estimate(decay_system, 0.0, [1.0], THETA1, rho, cfg)[0] == 0.0

    def test_first_layer_value_from_xi_three(self, decay_system, rho, cfg):
        """Worst case is the slowest decay, attained at the initial time:
        G_1(rho(3)) = 2.75 - 1 = 1.75, and G_k(rho(3)) = 2.75 - 1/k for
        every layer."""
        w = wk_estimate(decay_system, 0.0, [3.0], THETA1, rho, cfg)
        assert w[0] == pytest.approx(1.75, rel=0.02)
        assert w.shape == (cfg.k_max,)
        for k in range(1, cfg.k_max + 1):
            assert w[k - 1] == pytest.approx(max(2.75 - 1.0 / k, 0.0), rel=0.02)

    def test_zero_state(self, decay_system, rho, cfg):
        assert wk_estimate(decay_system, 7.0, [0.0], THETA1, rho, cfg)[2] == 0.0

    def test_layers_monotone_and_bounded(self, decay_system, rho, cfg_small):
        prev = 0.0
        for k in range(1, 6):
            w = wk_estimate(decay_system, 0.0, [3.0], THETA1, rho, cfg_small)[k - 1]
            assert w >= prev - 1e-12
            assert w <= THETA1.eval(3.0) + 1e-9
            prev = w

    def test_sample_monotonicity_with_nested_seeds(self, decay_system, rho):
        vals = []
        for n in (8, 16, 32):
            c = ConverseConfig(k_max=3, disturbance_samples=n,
                               pieces_per_horizon=8, sim_step=5e-3, seed=1)
            vals.append(wk_estimate(decay_system, 0.0, [2.5], THETA1, rho, c)[1])
        assert vals[0] <= vals[1] <= vals[2]

    def test_overstated_decay_raises_model_error(self, rho, cfg):
        bad = DisturbedSystem(
            rhs_d=perturbed_decay_system().rhs, n=1, m=1,
            urgas_beta=KLBound(kind="exponential", K=1.0, lam=5.0),
        )
        with pytest.raises(ModelError):
            wk_estimate(bad, 0.0, [3.0], THETA1, rho, cfg)[0]

    def test_layer_horizon_formula(self):
        assert horizon_for(1, THETA1, 3.0) == pytest.approx(math.log(10.0))

    def test_layer_term_vanishes_past_horizon(self, decay_system, rho):
        """Beyond t0 + T_{R,k} the layer integrand is zero at all probes:
        rho(|x(t)|) has dropped below 1/k."""
        sysd = decay_system.as_systemdef()
        for k in (1, 2, 5):
            for s in (0.5, 1.5, 3.0):
                T_Rk = horizon_for(k, THETA1, s)
                for d_val in (-1.0, 0.0, 1.0):
                    d = constant_signal([d_val], T_Rk + 2.0)
                    tr = simulate(sysd, 0.0, [s], d, T_Rk + 2.0, 5e-3)
                    past = tr.times >= T_Rk
                    rho_vals = np.asarray(rho.eval(tr.norms()[past]))
                    assert np.all(np.maximum(rho_vals - 1.0 / k, 0.0) == 0.0)


class TestDisturbanceBatch:
    def test_extremes_first_and_nested(self):
        b8 = disturbance_batch(1, 8, 0.0, 2.0, 4, seed=3)
        b16 = disturbance_batch(1, 16, 0.0, 2.0, 4, seed=3)
        assert b8[0].eval(1.0)[0] == 1.0
        assert b8[1].eval(1.0)[0] == -1.0
        for a, c in zip(b8, b16):
            assert np.array_equal(a.values, c.values)

    def test_unit_ball_constraint(self):
        for d in disturbance_batch(2, 12, 0.0, 3.0, 5, seed=7):
            for _, _, v in d.pieces():
                assert float(np.linalg.norm(v)) <= 1.0 + 1e-12


class TestConverseValue:
    def test_zero_state(self, decay_system, rho, cfg_small, mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        assert ev.value(0.0, [0.0]) == 0.0
        assert ev.tail_bound([0.0]) == 0.0

    def test_truncation_bounded_at_unit_state(self, decay_system, rho,
                                              cfg_small, mrk_small):
        """All layers vanish from |xi|=1, so V is within the dropped tail."""
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        v, tail = ev.value(0.0, [1.0]), ev.tail_bound([1.0])
        assert v <= 0.25
        assert tail == pytest.approx(2.0 ** -cfg_small.k_max * THETA1.eval(1.0))

    def test_sandwich_at_probe_states(self, decay_system, rho, cfg_small,
                                      mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        for s in (0.5, 1.0, 3.0):
            v = ev.value(0.0, [s])
            assert ev.alpha1_value(s) * (1 - 0.05) - 1e-12 <= v
            assert v <= THETA1.eval(s) * (1 + 0.05)

    def test_alpha1_array_call_matches_scalar_calls(self, decay_system, rho,
                                                    cfg_small, mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 240), [0.5, 1.0, 3.0]])
        scalars = np.array([ev.alpha1_value(float(r)) for r in grid])
        assert np.array_equal(ev.alpha1_value(grid), scalars)


@pytest.fixture(scope="module")
def report(decay_system):
    small = ConverseConfig(k_max=5, disturbance_samples=16,
                           pieces_per_horizon=6, sim_step=5e-3, seed=1)
    plan = ConverseProbePlan(states=(0.5, 1.0, 3.0), decay_horizon=4.0,
                             decay_eval_points=4,
                             constant_disturbances=(-1.0, 0.0, 1.0),
                             lipschitz_pairs=6, slack=0.1, seed=2)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, max(plan.states) * 4.0 + 1.0, 200)])
    ev = ConverseEvaluator(decay_system, THETA1, regularized_rho(THETA2, grid), small,
                           build_mrk_table(decay_system, THETA1, small))
    return check_converse_properties(ev, plan)


class TestConverseProperties:
    def test_all_items_pass(self, report):
        assert report.sandwich_ok
        assert report.lipschitz_ok
        assert report.decay_ok

    def test_decay_rows_respect_exponential_bound(self, report):
        for row in report.decay_rows:
            assert row["value"] <= row["bound"] + 1e-12

    def test_json_export_shape(self, report):
        j = report.to_json()
        assert set(j) == {"sandwich", "lipschitz", "decay"}
        assert j["sandwich"]["ok"]


@pytest.fixture(scope="module")
def candidate():
    cfgp = ConverseConfig(k_max=4, disturbance_samples=8,
                          pieces_per_horizon=6, sim_step=1e-2, seed=3)
    return iss_to_dissipation_candidate(
        linear_test_system(1.0), make_power_fn(0.5, 1.0), THETA1, THETA2,
        cfgp)


class TestPipeline:
    def test_candidate_sandwich(self, candidate):
        for s in np.geomspace(0.05, 4.0, 15):
            v = candidate.eval(0.0, [s])
            assert candidate.alpha1.eval(s) <= v + 1e-9
            assert v <= candidate.alpha2.eval(s) + 1e-9

    def test_row_wise_gain_reproduces_whole_state_gain(self):
        """The closed loop's row-wise gain gives the values of the scalar form
        ``d * phi(float(norm(x)))``, which the batch check routes per member."""
        cfgp = ConverseConfig(k_max=2, disturbance_samples=5,
                              pieces_per_horizon=3, sim_step=2e-2, seed=5)
        base = linear_test_system(1.0)
        phi = make_power_fn(0.5, 1.0)
        cand = iss_to_dissipation_candidate(base, phi, THETA1, THETA2, cfgp)

        def whole_state_rhs(t, x, d):
            return base.rhs(t, x, d * float(phi.eval(float(np.linalg.norm(x)))))

        dsys = DisturbedSystem(
            rhs_d=whole_state_rhs, n=1, m=1,
            urgas_beta=KLBound(kind="general",
                               eval2=lambda s, t: THETA2.eval(
                                   THETA1.eval(s) * np.exp(-np.asarray(t, dtype=float)))))
        rho = regularized_rho(THETA2, np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 240)]))
        ev = ConverseEvaluator(dsys, THETA1, rho, cfgp, build_mrk_table(dsys, THETA1, cfgp))
        for t, x in ((0.0, 0.4), (0.0, -1.3), (0.7, 2.5)):
            assert cand.eval(t, [x]) == ev.value(t, np.array([x]))

    def test_inadequate_gain_names_phi(self):
        """A gain that destabilizes the closed loop fails the decay envelope at
        evaluation, and the error names the gain."""
        cfgp = ConverseConfig(k_max=2, disturbance_samples=4,
                              pieces_per_horizon=3, sim_step=2e-2, seed=5)
        cand = iss_to_dissipation_candidate(linear_test_system(1.0),
                                            make_power_fn(5.0, 1.0), THETA1, THETA2, cfgp)
        with pytest.raises(ModelError, match="phi is inadequate"):
            cand.eval(0.0, [3.0])

    def test_input_free_variant_decays(self):
        """With no input coupling any gain leaves pure decay behind."""
        from ipss_lab.simulator import SystemDef

        pure = SystemDef(rhs=lambda t, x, u: -x, n=1, m=1)
        cfgp = ConverseConfig(k_max=3, disturbance_samples=6,
                              pieces_per_horizon=4, sim_step=1e-2, seed=4)
        t1, t2 = sontag_factorize_exponential(1.0, 1.0)
        cand = iss_to_dissipation_candidate(pure, identity_fn(), t1, t2, cfgp)
        v0 = cand.eval(0.0, [3.0])
        tr = simulate(pure, 0.0, [3.0], constant_signal([0.0], 2.0), 2.0, 1e-2)
        v2 = cand.eval(2.0, tr.states[-1])
        assert v2 <= math.exp(-1.0) * v0 * 1.1

    def test_candidate_feeds_gain_synthesis_end_to_end(self, candidate):
        """Candidate sandwich + decay pair synthesize a power envelope that
        holds on 50 seeded runs with slack 0.1.

        The gains are paired with the candidate's tight upper sandwich
        (V equals its lower table exactly for this time-invariant system,
        so a 1.05-scaled copy majorizes it); pairing with the loose
        factor-squared bound instead drives the rescaling outside float
        range, a conservatism artifact rather than a soundness issue.
        """
        from ipss_lab.comparison_functions import inverse_fn, scale_fn
        from ipss_lab.lyapunov_tools import build_kappa, ipss_gains_from_dissipation
        from ipss_lab.signals import make_signal
        from ipss_lab.stability_certificates import Certificate, check_envelope

        for s in (0.6, 1.0, 2.0, 3.5):  # tight-majorant premise
            assert candidate.eval(0.0, [s]) <= 1.05 * candidate.alpha1.eval(s) + 1e-12

        alpha2c = scale_fn(candidate.alpha1, 1.05)
        alpha4 = scale_fn(candidate.alpha1, 0.5)
        chi4 = make_power_fn(0.8, 1.0)
        sigma = compose_kinf(alpha4, inverse_fn(alpha2c))
        bundle = build_kappa(sigma, (1e-3, 1e3), 1e-10)
        beta, gamma, rho = ipss_gains_from_dissipation(
            candidate.alpha1, alpha2c,
            DissipationSpec(alpha4=alpha4, chi4=chi4), 1.0, bundle)
        cert = Certificate(kind="IPSS", beta=beta, gamma=gamma, rho=rho, T=1.0)

        sysd = linear_test_system(1.0)
        rng = np.random.default_rng(77)
        for _ in range(50):
            xi = float(rng.uniform(-2.0, 2.0))
            n_pieces = int(rng.integers(1, 8))
            starts = [0.0] + sorted(float(v)
                                    for v in rng.uniform(0, 6.0, size=n_pieces - 1))
            vals = rng.uniform(-1.0, 1.0, size=n_pieces)
            u = make_signal([(t, [float(v)]) for t, v in zip(starts, vals)],
                            horizon=6.0)
            traj = simulate(sysd, 0.0, [xi], u, 6.0, 2e-3)
            rep = check_envelope(traj, cert, u, abs(xi), 0.0, tolerance=0.1)
            assert rep.margin >= -0.1

    def test_candidate_passes_coarse_dissipation_check(self, candidate):
        """Decay -V/2 plus a calibrated linear input gain holds on a
        coarse grid with margin 0.1."""
        sysd = linear_test_system(1.0)
        alpha4 = make_table_scaled_half(candidate)
        spec = DissipationSpec(alpha4=alpha4, chi4=make_power_fn(0.8, 1.0))
        plan = make_plan(1, 1, times=[0.0, 0.7], radii=[0.5, 1.2, 2.5],
                         dirs_per_radius=2, mu_radii=[0.2, 1.0],
                         mu_dirs_per_radius=1, seed=7, h0=1e-3, levels=5)
        rep = check_derivative_bound(candidate, sysd, spec.alpha4, spec.chi4, plan, margin=0.1)
        assert rep.passed


def make_table_scaled_half(candidate):
    """Kinf minorant of V/2 on the probed radius range, from the alpha1 table."""
    from ipss_lab.comparison_functions import scale_fn

    return scale_fn(candidate.alpha1, 0.5)


def compose_kinf(outer, inner):
    from ipss_lab.comparison_functions import compose

    return compose(outer, inner)


class TestCandidateTableExport:
    def test_round_trip_on_nodes(self, decay_system, rho, cfg_small, mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        cand = ev.candidate(RHO_GRID, "converse_series")
        t_grid = [0.0, 1.0]
        x_grid = [-3.0, -1.0, 0.0, 1.0, 3.0]
        table = candidate_table_to_json(cand, t_grid, x_grid)
        clone = candidate_table_from_json(table)
        for i, t in enumerate(t_grid):
            for j, x in enumerate(x_grid):
                assert clone.eval(t, [x]) == pytest.approx(
                    table["values"][i][j], rel=1e-12)

    def test_bilinear_samples_reproduced_between_nodes(self, rng):
        def f(t, x):
            return 0.5 - 1.25 * t + 2.0 * x + 0.75 * t * x

        t_grid = [0.0, 0.5, 2.0]
        x_grid = [-3.0, -1.0, 0.25, 3.0]
        clone = candidate_table_from_json({
            "t_grid": t_grid, "x_grid": x_grid,
            "values": [[f(t, x) for x in x_grid] for t in t_grid],
            "alpha1": {"kind": "power", "c": 1.0, "p": 1.0},
            "alpha2": {"kind": "power", "c": 1.0, "p": 1.0},
        })
        for t, x in zip(rng.uniform(0.0, 2.0, 100), rng.uniform(-3.0, 3.0, 100)):
            assert clone.eval(t, [x]) == pytest.approx(f(t, x), rel=1e-12, abs=1e-12)
