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
import ipss_lab.converse_construction as cc
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
    disturbance_draws,
    horizon_for,
    iss_to_dissipation_candidate,
    regularized_rho,
    wk_estimates,
)
from ipss_lab.errors import DynamicsError, ModelError, RangeError
from ipss_lab.lyapunov_tools import (
    DissipationSpec,
    LyapunovCandidate,
    check_derivative_bound,
    make_plan,
)
from ipss_lab.signals import constant_signal, make_signal
import ipss_lab.simulator as sm
from ipss_lab.simulator import (linear_test_system, lipschitz_probes, perturbed_decay_system,
                                simulate, simulate_batch)

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
        assert wk_estimates(decay_system, [(0.0, [1.0])], THETA1, rho, cfg)[0][0] == 0.0

    def test_first_layer_value_from_xi_three(self, decay_system, rho, cfg):
        """Worst case is the slowest decay, attained at the initial time:
        G_1(rho(3)) = 2.75 - 1 = 1.75, and G_k(rho(3)) = 2.75 - 1/k for
        every layer."""
        w = wk_estimates(decay_system, [(0.0, [3.0])], THETA1, rho, cfg)[0]
        assert w[0] == pytest.approx(1.75, rel=0.02)
        assert w.shape == (cfg.k_max,)
        for k in range(1, cfg.k_max + 1):
            assert w[k - 1] == pytest.approx(max(2.75 - 1.0 / k, 0.0), rel=0.02)

    def test_zero_state(self, decay_system, rho, cfg):
        assert wk_estimates(decay_system, [(7.0, [0.0])], THETA1, rho, cfg)[0][2] == 0.0

    def test_layers_monotone_and_bounded(self, decay_system, rho, cfg_small):
        prev = 0.0
        for w in wk_estimates(decay_system, [(0.0, [3.0])], THETA1, rho, cfg_small)[0]:
            assert w >= prev - 1e-12
            assert w <= THETA1.eval(3.0) + 1e-9
            prev = w

    def test_sample_monotonicity_with_nested_seeds(self, decay_system, rho):
        vals = []
        for n in (8, 16, 32):
            c = ConverseConfig(k_max=3, disturbance_samples=n,
                               pieces_per_horizon=8, sim_step=5e-3, seed=1)
            vals.append(wk_estimates(decay_system, [(0.0, [2.5])], THETA1, rho, c)[0][1])
        assert vals[0] <= vals[1] <= vals[2]

    def test_overstated_decay_raises_model_error(self, rho, cfg):
        bad = DisturbedSystem(
            rhs_d=perturbed_decay_system().rhs, n=1, m=1,
            urgas_beta=KLBound(kind="exponential", K=1.0, lam=5.0),
        )
        with pytest.raises(ModelError):
            wk_estimates(bad, [(0.0, [3.0])], THETA1, rho, cfg)

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


def _wk_reference(sys, t0, xi, theta1, rho, cfg):
    """The per-point layer estimate, one disturbance batch simulated alone, with its own
    check of the decay envelope."""
    xi = np.asarray(xi, dtype=float).reshape(sys.n)
    R = float(np.linalg.norm(xi))
    best = np.zeros(cfg.k_max)
    if R == 0.0:
        return best
    span = horizon_for(cfg.k_max, theta1, R)
    batch = disturbance_batch(sys.m, cfg.disturbance_samples, t0, span,
                              cfg.pieces_per_horizon, cfg.seed)
    trajs = simulate_batch(sys.as_systemdef(), t0, [xi] * len(batch), batch,
                           t0 + span, cfg.sim_step)
    for traj in trajs:
        if traj.blown_up:
            raise ModelError(f"probe trajectory blew up at t={traj.blowup_time}")
        excess = traj.norms() - np.asarray(sys.urgas_beta.eval(R, traj.times - t0), dtype=float)
        if float(np.max(excess)) > 1e-3:
            raise ModelError(
                f"probe trajectory violates the declared decay envelope by "
                f"{float(np.max(excess)):.3e} at t={float(traj.times[np.argmax(excess)]):.4g} "
                f"(|xi|={R:.4g})")
        gains = np.exp(0.5 * (traj.times - t0)) * cc._layer_gains(rho, traj.norms(), cfg.k_max)
        best = np.maximum(best, np.max(gains, axis=1))
    return best


class TestWkEstimates:
    """Probe states in lockstep batches give the per-point layers exactly."""

    # mixed t0, the origin, negative states and a duplicate; 10 states off the
    # origin at 16 runs each fill more than one 128-row batch
    POINTS = [(0.0, [3.0]), (0.7, [-1.5]), (2.0, [0.0]), (0.0, [0.5]), (1.3, [2.2]),
              (0.0, [3.0]), (0.25, [-0.9]), (5.0, [1.1]), (0.0, [-3.0]), (3.5, [1.8]),
              (0.9, [-2.6]), (0.1, [0.05])]

    def test_equals_the_per_point_reference(self, decay_system, rho, cfg_small, monkeypatch):
        rows = []
        fold = cc._fold_rows

        def recording_fold(sys, group, *args):
            rows.append(len(group))
            return fold(sys, group, *args)

        monkeypatch.setattr(cc, "_fold_rows", recording_fold)
        got = wk_estimates(decay_system, self.POINTS, THETA1, rho, cfg_small)
        assert len(rows) > 1 and max(rows) <= cc._WK_ROWS
        assert sum(rows) == 11 * cfg_small.disturbance_samples  # one batch per state off 0
        assert len(got) == len(self.POINTS)
        for (t0, xi), w in zip(self.POINTS, got):
            ref = _wk_reference(decay_system, t0, xi, THETA1, rho, cfg_small)
            assert np.array_equal(w, ref), (t0, xi)
        assert np.array_equal(got[2], np.zeros(cfg_small.k_max))

    def test_first_failing_point_in_query_order_raises(self, rho, cfg_small):
        """Points run by horizon, but the error is that of the first failing
        point in query order, with its own message."""
        bad = DisturbedSystem(
            rhs_d=perturbed_decay_system().rhs, n=1, m=1,
            urgas_beta=KLBound(kind="exponential", K=1.0, lam=5.0),
        )
        points = [(0.0, [0.0]), (0.0, [3.0]), (0.0, [0.5])]
        with pytest.raises(ModelError) as expected:
            _wk_reference(bad, 0.0, [3.0], THETA1, rho, cfg_small)
        with pytest.raises(ModelError) as got:
            wk_estimates(bad, points, THETA1, rho, cfg_small)
        assert str(got.value) == str(expected.value)
        assert "|xi|=3" in str(got.value)

    def test_one_envelope_check_per_probe_state(self, decay_system, rho, cfg_small,
                                                monkeypatch):
        """The runs of a probe state are checked as one stack of samples: one check per
        run made 176 calls here."""
        calls = []
        check = cc.check_envelope

        def counted(traj, *args, **kwargs):
            calls.append(traj.times.size)
            return check(traj, *args, **kwargs)

        monkeypatch.setattr(cc, "check_envelope", counted)
        wk_estimates(decay_system, self.POINTS, THETA1, rho, cfg_small)
        off_origin = sum(any(v != 0.0 for v in xi) for _, xi in self.POINTS)
        assert off_origin == 11 and len(calls) == off_origin

    @pytest.mark.parametrize("rate, error", [
        # the extremes |d| = 1 decay and pass; the random runs grow and break the envelope
        (lambda d: 3.0 * (1.0 - np.abs(d)) - 1.0, ModelError),
        # the extremes grow and break the envelope; the random runs turn nonfinite after them
        (lambda d: np.where(np.abs(d) < 1.0, np.nan, 0.5), DynamicsError),
    ])
    def test_error_within_one_probe_state_is_that_of_its_runs_in_order(self, rho, cfg_small,
                                                                         rate, error):
        """A state whose runs fail raises what its runs, checked one by one, raise: the
        first failed check's message, or a later run's DynamicsError over it."""
        sys = DisturbedSystem(rhs_d=lambda t, x, d: x * rate(d), n=1, m=1,
                              urgas_beta=KLBound(kind="exponential", K=1.0, lam=0.5))
        point = (0.5, [1.0])
        with pytest.raises(error) as expected:
            _wk_reference(sys, *point, THETA1, rho, cfg_small)
        with pytest.raises(error) as got:
            wk_estimates(sys, [(0.0, [0.0]), point], THETA1, rho, cfg_small)
        assert str(got.value) == str(expected.value)

    def test_evaluator_batches_uncached_keys_once(self, decay_system, rho, cfg_small,
                                                  mrk_small, monkeypatch):
        calls = []
        batched = cc.wk_estimates

        def recording(sys, points, *args):
            calls.append(list(points))
            return batched(sys, points, *args)

        monkeypatch.setattr(cc, "wk_estimates", recording)
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        first = ev.wk_many([(0.0, [1.5]), (0.0, np.array([1.5])), (1.0, [2.0])])
        assert calls == [[(0.0, (1.5,)), (1.0, (2.0,))]]
        assert first[0] is first[1]
        again = ev.wk_many([(1.0, [2.0]), (0.0, [0.5])])
        assert calls[1:] == [[(0.0, (0.5,))]]
        assert again[0] is first[2]
        assert ev.wk_many([(0.0, [0.5])])[0] is again[1] and len(calls) == 2


class TestMrkTable:
    def test_one_probe_batch_gives_the_per_layer_weights(self, decay_system, cfg_small,
                                                         mrk_small, monkeypatch):
        """The weights of every layer's own probe, from one step loop."""
        loops = []
        rk4 = sm._rk4

        def counted(*args):
            loops.append(1)
            return rk4(*args)

        monkeypatch.setattr(sm, "_rk4", counted)
        mrk = build_mrk_table(decay_system, THETA1, cfg_small)
        assert len(loops) == 1
        monkeypatch.undo()
        lbar = []
        for k in range(1, cfg_small.k_max + 1):
            T = max(horizon_for(k, THETA1, float(k)), 0.1)
            rep = lipschitz_probes(decay_system.as_systemdef(),
                                   [(float(k), T, 10, cfg_small.seed + 1000 + k)], step=2e-3)[0]
            val = max(rep.state_ratio_max, rep.shift_ratio_max, 1e-6)
            lbar.append(val if not lbar else max(val, lbar[-1]))
        for R in (0.3, 1.0, 2.5, 4.0, 7.0):
            for k in range(1, cfg_small.k_max + 1):
                idx = min(max(math.ceil(max(R, 1.0)), 1), len(lbar)) - 1
                expected = math.exp(0.5 * horizon_for(k, THETA1, R)) * lbar[idx]
                assert mrk(R, k) == expected == mrk_small(R, k)


class TestDisturbanceBatch:
    def test_extremes_first_and_nested(self):
        b8 = disturbance_batch(1, 8, 0.0, 2.0, 4, seed=3)
        b16 = disturbance_batch(1, 16, 0.0, 2.0, 4, seed=3)
        assert b8[0].eval(1.0)[0] == 1.0
        assert b8[1].eval(1.0)[0] == -1.0
        for a, c in zip(b8, b16):
            assert np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("m,count", [(1, 16), (2, 12), (2, 3)])
    def test_one_draw_serves_every_start_and_span(self, m, count):
        draws = disturbance_draws(m, count, 5, seed=7)
        for t0, span in [(0.0, 3.0), (1.3, 0.7), (4.0, 0.0)]:
            fresh = disturbance_batch(m, count, t0, span, 5, seed=7)
            reused = disturbance_batch(m, count, t0, span, 5, 7, draws)
            assert len(reused) == count
            for a, b in zip(fresh, reused):
                assert (a.horizon, a.dim) == (b.horizon, b.dim)
                assert np.array_equal(a.breakpoints, b.breakpoints)
                assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("m, count", [(1, 8), (2, 10)])
    @pytest.mark.parametrize("t0, span", [(0.0, 3.0), (1.3, 0.7), (4.0, 0.0)])
    def test_signals_equal_their_make_signal_references(self, m, count, t0, span):
        """The random signals are the ones make_signal builds from the same pieces; a
        draw with two equal consecutive values is merged as it merges them.  The others
        share one read-only breakpoint array and hold read-only values."""
        pieces = 5
        draws = disturbance_draws(m, count, pieces, seed=7)
        draws[1, 3] = draws[1, 2]
        batch = disturbance_batch(m, count, t0, span, pieces, 7, draws)
        randoms = batch[count - len(draws):]
        s = max(span, 1e-9)
        edges = t0 + s * np.arange(pieces) / pieces
        for j, u in enumerate(randoms):
            ref = make_signal([(0.0, np.zeros(m))] + list(zip(edges, draws[j])),
                              horizon=t0 + s, dim=m)
            assert (u.horizon, u.dim) == (ref.horizon, ref.dim)
            assert np.array_equal(u.breakpoints, ref.breakpoints)
            assert np.array_equal(u.values, ref.values)
        assert randoms[1].values.shape[0] == randoms[0].values.shape[0] - 1  # merged
        shared = randoms[:1] + randoms[2:]
        assert all(u.breakpoints is shared[0].breakpoints for u in shared)
        assert not shared[0].breakpoints.flags.writeable
        assert not any(u.values.flags.writeable for u in shared)

    def test_wk_estimates_draws_once_per_call(self, decay_system, rho, cfg_small, monkeypatch):
        calls = []
        draw = cc.disturbance_draws

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(cc, "disturbance_draws", counted)
        wk_estimates(decay_system, TestWkEstimates.POINTS[:5], THETA1, rho, cfg_small)
        assert len(calls) == 1

    def test_unit_ball_constraint(self):
        for d in disturbance_batch(2, 12, 0.0, 3.0, 5, seed=7):
            for _, _, v in d.pieces():
                assert float(np.linalg.norm(v)) <= 1.0 + 1e-12


class TestConverseValue:
    def test_zero_state(self, decay_system, rho, cfg_small, mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        assert ev.values([0.0], [[0.0]])[0] == 0.0

    def test_truncation_bounded_at_unit_state(self, decay_system, rho,
                                              cfg_small, mrk_small):
        """rho(1) = 3/4 keeps the first layer silent at |xi| = 1, so V stays small."""
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        assert ev.values([0.0], [[1.0]])[0] <= 0.25

    def test_sandwich_at_probe_states(self, decay_system, rho, cfg_small,
                                      mrk_small):
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        states = (0.5, 1.0, 3.0)
        for s, v in zip(states, ev.values([0.0] * 3, [[s] for s in states])):
            assert ev.alpha1_value(s) * (1 - 0.05) - 1e-12 <= v
            assert v <= THETA1.eval(s) * (1 + 0.05)

    def test_rows_sum_the_layers_in_layer_order(self, decay_system, rho, cfg_small,
                                                mrk_small):
        """Each row is the weighted layer sum a single state took, bit for bit."""
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        t, x = np.array([0.0, 0.4, 1.3, 0.0]), np.array([[3.0], [-1.7], [0.8], [0.0]])
        rows = ev.values(t, x)
        assert [repr(float(v)) for v in rows] == [
            repr(float(sum(w * v for w, v in zip(ev.weights, ev.wk_many([(a, b)])[0]))))
            for a, b in zip(t, x)]

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

    def test_rows_of_two_start_times_equal_lone_runs(self, decay_system, rho, cfg_small,
                                                     mrk_small, monkeypatch):
        """With two ``t0`` the decay runs of both share one batch, and one ``values``
        call per phase gives every row a lone ``simulate`` run and a per-state layer
        sum give, bit for bit."""
        ev = ConverseEvaluator(decay_system, THETA1, rho, cfg_small, mrk_small)
        plan = ConverseProbePlan(states=(0.5, 1.0, 3.0), t0_values=(0.0, 0.7),
                                 decay_eval_points=3, lipschitz_pairs=4, seed=2)
        calls = {"values": 0, "simulate_batch": 0}
        values, batch = ConverseEvaluator.values, cc.simulate_batch

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(ConverseEvaluator, "values", counted("values", values))
        monkeypatch.setattr(cc, "simulate_batch", counted("simulate_batch", batch))
        report = check_converse_properties(ev, plan)
        assert calls == {"values": 2, "simulate_batch": 1}
        monkeypatch.undo()

        def V(t, x):  # the weighted layers of one state, summed in layer order
            return float(sum(w * v for w, v in zip(ev.weights, ev.wk_many([(t, x)])[0])))

        slack, sysdef = plan.slack, decay_system.as_systemdef()
        sandwich, decay = [], []
        for t0 in plan.t0_values:
            for s in plan.states:
                v0 = V(t0, [s])
                lo, hi = ev.alpha1_value(s), float(THETA1.eval(s))
                sandwich.append({"t0": t0, "state": s, "lower": lo, "value": v0, "upper": hi,
                                 "ok": lo * (1 - slack) - 1e-12 <= v0 <= hi * (1 + slack) + 1e-12})
                for dc in plan.constant_disturbances if v0 > 1e-12 else ():
                    t_end = t0 + plan.decay_horizon
                    traj = simulate(sysdef, t0, [s], constant_signal([dc], t_end), t_end,
                                    cfg_small.sim_step)
                    for te in np.linspace(t0, t_end, plan.decay_eval_points + 1)[1:]:
                        i = min(int(np.searchsorted(traj.times, te)), traj.times.size - 1)
                        tt = float(traj.times[i])
                        vt = V(tt, traj.states[i])
                        bound = math.exp(-0.5 * (tt - t0)) * v0 * (1 + slack)
                        decay.append({"t0": t0, "state": s, "d": dc, "t": tt, "value": vt,
                                      "bound": bound, "ok": vt <= bound + 1e-12})
        theoretical = 1.0 + sum(2.0 ** -k * mrk_small(plan.lipschitz_radius, k)
                                / (1.0 + mrk_small(k, k)) for k in range(1, 6))
        rng, lipschitz = np.random.default_rng(plan.seed), []
        for _ in range(plan.lipschitz_pairs):
            t_a, t_b = rng.uniform(0.0, 2.0, size=2)
            xa, xb = (rng.uniform(-plan.lipschitz_radius, plan.lipschitz_radius, size=1)
                      for _ in range(2))
            ratio = abs(V(t_a, xa) - V(t_b, xb)) / (abs(t_a - t_b) + float(np.linalg.norm(xa - xb)))
            lipschitz.append({"ratio": float(ratio), "bound": theoretical,
                              "ok": ratio <= theoretical * (1 + slack)})
        assert {row["t0"] for row in report.decay_rows} == {0.0, 0.7}
        assert len(decay) == 2 * 3 * 3 * 3
        for rows, expected in ((report.sandwich_rows, sandwich),
                               (report.lipschitz_rows, lipschitz),
                               (report.decay_rows, decay)):
            assert [{k: repr(v) for k, v in row.items()} for row in rows] == [
                {k: repr(v) for k, v in row.items()} for row in expected]


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
            assert cand.eval(t, [x]) == ev.values([t], [np.array([x])])[0]

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
        cases = []
        for _ in range(50):
            xi = float(rng.uniform(-2.0, 2.0))
            n_pieces = int(rng.integers(1, 8))
            starts = [0.0] + sorted(float(v)
                                    for v in rng.uniform(0, 6.0, size=n_pieces - 1))
            vals = rng.uniform(-1.0, 1.0, size=n_pieces)
            cases.append((xi, make_signal([(t, [float(v)]) for t, v in zip(starts, vals)],
                                          horizon=6.0)))
        trajs = simulate_batch(sysd, 0.0, [[xi] for xi, _ in cases], [u for _, u in cases],
                               6.0, 2e-3)
        for (xi, u), traj in zip(cases, trajs):
            rep = check_envelope(traj, cert, u, abs(xi), 0.0, tolerance=0.1)
            assert rep.margin >= -0.1

    def test_candidate_acts_row_wise(self, candidate):
        """Rows give the single calls' values bit for bit, so the derivative-bound
        checks call the converse candidate on all samples at once."""
        t = np.array([0.0, 0.7, 0.7, 1.9, 0.3])
        x = np.array([[0.5], [-1.2], [2.5], [0.0], [-2.5]])
        rows = candidate.eval(t, x)
        assert rows.shape == (5,)
        assert [repr(float(v)) for v in rows] == [repr(candidate.eval(float(a), b))
                                                  for a, b in zip(t, x)]
        assert sm._as_rowwise(candidate.eval, t[:3], x[:3]) is candidate.eval

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

    @pytest.mark.parametrize("row_wise", [True, False])
    def test_export_evaluates_its_grid_in_one_call(self, row_wise):
        """A row-wise candidate is called on the three probe rows, then on the whole
        grid; one that takes a single state only is called node by node.  Either way
        the table holds every node's single-call value."""
        def f(t, x):
            return (1.0 + 0.1 * np.asarray(t)) * np.atleast_1d(x)[..., 0] ** 2

        calls = []

        def spied(t, x):
            calls.append(np.ndim(t))
            if not row_wise and np.ndim(t):
                raise ValueError("one state at a time")
            out = f(t, x)
            return float(out) if np.ndim(t) == 0 else out

        cand = LyapunovCandidate(eval=spied, alpha1=make_power_fn(1.0, 2.0),
                                 alpha2=make_power_fn(1.2, 2.0))
        t_grid, x_grid = [0.0, 0.5, 2.0], [-3.0, -1.0, 0.25, 3.0]
        table = candidate_table_to_json(cand, t_grid, x_grid)
        assert table["values"] == [[float(f(t, np.array([x]))) for x in x_grid] for t in t_grid]
        assert calls == [0] * 3 + [1] + ([1] if row_wise else [0] * 12)

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

    @staticmethod
    def _table():
        """A table on the grid of the ``converse_demo`` export: t in [0, 2], x in [-3, 3]."""
        t_grid, x_grid = [0.0, 1.0, 2.0], [-3.0, -1.0, 0.0, 1.0, 3.0]
        return candidate_table_from_json({
            "t_grid": t_grid, "x_grid": x_grid,
            "values": [[(1.0 + 0.1 * t) * x * x for x in x_grid] for t in t_grid],
            "alpha1": {"kind": "power", "c": 1.0, "p": 2.0},
            "alpha2": {"kind": "power", "c": 1.2, "p": 2.0},
        })

    def test_queries_off_the_grid_raise(self):
        """No clamping: V(1, 30) and V(50, 3) used to read V(1, 3) and V(2, 3)."""
        clone = self._table()
        for t, x in [(1.0, 30.0), (50.0, 3.0), (-0.5, 0.0), (1.0, -3.5), (2.0 + 1e-9, 0.0)]:
            with pytest.raises(RangeError, match=r"off its grid t in \[0, 2\], x in \[-3, 3\]"):
                clone.eval(t, [x])
        with pytest.raises(RangeError, match=r"at \(t=50, x=3\)"):
            clone.eval(np.array([1.0, 50.0]), np.array([[0.0], [3.0]]))
        assert clone.eval(2.0, [3.0]) == clone.eval(2.0, np.array([-3.0])) == 1.2 * 9.0

    def test_rows_equal_single_queries(self, rng):
        clone = self._table()
        t, x = rng.uniform(0.0, 2.0, 50), rng.uniform(-3.0, 3.0, (50, 1))
        rows = clone.eval(t, x)
        assert rows.shape == (50,)
        assert [repr(float(v)) for v in rows] == [repr(clone.eval(float(a), b))
                                                  for a, b in zip(t, x)]

    def test_derivative_check_takes_the_array_path(self):
        """Every V call of the check but the three single-row probes is on all samples."""
        clone = self._table()
        calls = []

        def spied(t, x):
            calls.append(np.ndim(t))
            return clone.eval(t, x)

        plan = make_plan(1, 1, times=[0.0, 0.5, 1.0], radii=[0.5, 1.0, 2.0],
                         dirs_per_radius=2, mu_radii=[0.5], mu_dirs_per_radius=1, seed=3)
        cand = LyapunovCandidate(eval=spied, alpha1=clone.alpha1, alpha2=clone.alpha2)
        rep = check_derivative_bound(cand, linear_test_system(1.0), make_power_fn(1.5, 2.0),
                                     make_power_fn(2.0, 2.0), plan, margin=1e-3)
        assert rep.n_checked == 3 * 6 * 2
        assert calls == [0] * 3 + [1] * (2 + plan.levels)
