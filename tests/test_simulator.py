"""Integrator accuracy, alignment, blow-up handling, built-in systems."""

import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

import ipss_lab.simulator as sm
from ipss_lab.errors import DynamicsError, ParameterError
from ipss_lab.signals import constant_signal, make_signal, zero_signal
from ipss_lab.simulator import (
    SystemDef,
    Trajectory,
    _random_ball,
    _random_disturbance,
    counterexample_system,
    linear_test_system,
    lipschitz_probes,
    perturbed_decay_system,
    simulate,
    simulate_batch,
    trajectory_to_csv,
)


class TestSimulateAccuracy:
    def test_pure_decay_analytic(self):
        sys1 = linear_test_system(1.0)
        tr = simulate(sys1, 0.0, [1.0], zero_signal(1, 1.0), 1.0, 1e-3)
        assert tr.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_step_response_analytic(self):
        sys1 = linear_test_system(1.0)
        tr = simulate(sys1, 0.0, [0.0], constant_signal([1.0], 5.0), 5.0, 1e-3)
        assert tr.states[-1][0] == pytest.approx(1.0 - math.exp(-5.0), abs=1e-8)

    def test_finite_escape_detected(self):
        sq = SystemDef(rhs=lambda t, x, u: x ** 2, n=1, m=1)
        tr = simulate(sq, 0.0, [2.0], zero_signal(1, 1.0), 1.0, 1e-3)
        assert tr.blown_up
        assert tr.blowup_time == pytest.approx(0.5, abs=0.01)

    def test_step_halving_order(self):
        """Terminal error scales at least like step^3.5 on a smooth system."""
        sys1 = linear_test_system(1.0)
        u = make_signal([(0.0, [0.5]), (1.0, [1.5]), (2.0, [-1.0])], horizon=3.0)

        def terminal(step):
            return simulate(sys1, 0.0, [1.0], u, 3.0, step).states[-1][0]

        ref = terminal(1e-4)
        e_coarse = abs(terminal(4e-3) - ref)
        e_fine = abs(terminal(2e-3) - ref)
        order = math.log2(e_coarse / e_fine)
        assert order >= 3.5

    def test_nonfinite_rhs_raises(self):
        bad = SystemDef(rhs=lambda t, x, u: x * float("nan"), n=1, m=1)
        with pytest.raises(DynamicsError):
            simulate(bad, 0.0, [1.0], zero_signal(1, 1.0), 1.0, 1e-2)

    def test_grid_contains_breakpoints_and_discontinuities(self):
        sys1 = SystemDef(rhs=lambda t, x, u: -x + u, n=1, m=1,
                         discontinuity_times=(0.37,))
        u = make_signal([(0.0, [1.0]), (1.234567, [2.0])], horizon=2.0)
        tr = simulate(sys1, 0.0, [0.0], u, 2.0, 1e-2)
        for anchor in (0.37, 1.234567, 2.0):
            assert np.min(np.abs(tr.times - anchor)) == 0.0


class TestSimulateSemantics:
    def test_semigroup_with_aligned_grids(self):
        sys1 = linear_test_system(1.0)
        u = make_signal([(0.0, [1.0]), (1.0, [-0.5]), (2.0, [2.0])], horizon=6.0)
        full = simulate(sys1, 0.0, [1.0], u, 6.0, 1e-3)
        half = simulate(sys1, 0.0, [1.0], u, 3.0, 1e-3)
        # prefix agreement on the common grid
        k = half.times.size
        assert np.allclose(full.times[:k], half.times, atol=0)
        assert np.max(np.abs(full.states[:k] - half.states)) <= 1e-9
        # restart from the midpoint state reproduces the tail
        tail = simulate(sys1, 3.0, half.states[-1], u, 6.0, 1e-3)
        assert np.max(np.abs(tail.states[-1] - full.states[-1])) <= 1e-9

    def test_causality_bit_exact(self):
        """Editing the input beyond t_end cannot change the trajectory."""
        sys1 = linear_test_system(1.0)
        u = make_signal([(0.0, [1.0]), (1.5, [0.25])], horizon=3.0)
        extended = make_signal(
            [(0.0, [1.0]), (1.5, [0.25]), (3.0, [0.0]), (4.0, [9.0])], horizon=8.0)
        a = simulate(sys1, 0.0, [1.0], u, 3.0, 1e-3)
        b = simulate(sys1, 0.0, [1.0], extended, 3.0, 1e-3)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("name,t0,t_end,step", [
        ("step", 0.0, 1.0, math.nan),
        ("t_end", 0.0, math.nan, 1e-2),
        ("t0", math.nan, 1.0, 1e-2),
        ("t_end", 0.0, math.inf, 1e-2),
    ])
    def test_nonfinite_run_arguments_rejected(self, name, t0, t_end, step):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            simulate(linear_test_system(1.0), t0, [1.0], zero_signal(1, 1.0), t_end, step)

    def test_state_at_array_equals_each_time(self):
        """An array of grid times gives the stacked states of each time, within the same
        tolerance, and an off-grid time raises the same error either way."""
        tr = simulate(linear_test_system(1.0), 0.3, [1.0],
                      make_signal([(0.0, [0.5]), (0.77, [-1.0])], horizon=2.0), 2.0, 0.1)
        ts = np.concatenate([tr.times[::3], [0.3 + 1e-12, 0.77 - 5e-10, 2.0 * (1 + 5e-10)]])
        assert np.array_equal(tr.state_at(ts), np.vstack([tr.state_at(t) for t in ts]))
        assert tr.state_at(0.77).shape == (1,)
        for off in (0.35, 0.3 - 1e-8, 2.0 * (1 + 2e-9)):
            with pytest.raises(ParameterError) as lone:
                tr.state_at(off)
            with pytest.raises(ParameterError) as many:
                tr.state_at(np.array([0.3, off, 0.45]))
            assert str(many.value) == str(lone.value) == \
                f"time {off} is not on the trajectory grid"

    def test_input_dim_checked(self):
        with pytest.raises(ParameterError):
            simulate(linear_test_system(1.0), 0.0, [1.0], zero_signal(2, 1.0),
                     1.0, 1e-2)


def assert_same_trajectory(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert (a.blown_up, a.blowup_time) == (b.blown_up, b.blowup_time)


class TestSimulateBatch:
    def test_mixed_grids_bit_identical_to_simulate(self):
        """Constant and piecewise members, several grid groups, requested times."""
        ce = counterexample_system()
        us = [
            constant_signal([0.3], 4.0),
            make_signal([(0.0, [0.9]), (1.1, [0.2])], horizon=3.5),
            constant_signal([-0.7], 4.0),
            make_signal([(0.0, [0.1]), (1.1, [1.4])], horizon=3.5),
            make_signal([(0.0, [0.5]), (0.6, [0.0]), (2.9, [2.0])], horizon=4.0),
        ]
        xis = [[0.5], [-1.0], [2.0], [0.0], [0.25]]
        include = (0.37, 1.5)
        batch = simulate_batch(ce, 0.2, xis, us, 4.0, 7e-3, include_times=include)
        assert len(batch) == len(us)
        for xi, u, tr in zip(xis, us, batch):
            assert_same_trajectory(tr, simulate(ce, 0.2, xi, u, 4.0, 7e-3,
                                                include_times=include))

    def test_equal_anchors_share_one_read_only_grid(self):
        ce = counterexample_system()
        u = make_signal([(0.0, [0.9]), (1.1, [0.2])], horizon=3.5)
        us = [u, constant_signal([0.3], 3.5), u, make_signal([(0.0, [0.4]), (1.1, [0.0])], 3.5)]
        a, b, c, d = simulate_batch(ce, 0.2, [[0.5], [1.0], [-1.0], [2.0]], us, 3.5, 7e-3)
        assert a.times is c.times and a.times is d.times
        assert b.times is not a.times  # no breakpoint at 1.1
        assert not a.times.flags.writeable
        with pytest.raises(ValueError):
            a.times[0] = 1.0
        assert not np.array_equal(a.states, d.states)

    def test_blowup_is_per_member(self):
        sq = SystemDef(rhs=lambda t, x, u: x ** 2 + u, n=1, m=1)
        us = [zero_signal(1, 1.0)] * 3
        xis = [[0.1], [2.0], [-0.5]]
        batch = simulate_batch(sq, 0.0, xis, us, 1.0, 1e-3)
        assert [tr.blown_up for tr in batch] == [False, True, False]
        assert batch[1].blowup_time == pytest.approx(0.5, abs=0.01)
        for xi, u, tr in zip(xis, us, batch):
            assert_same_trajectory(tr, simulate(sq, 0.0, xi, u, 1.0, 1e-3))

    def test_nonfinite_member_raises_like_simulate(self):
        bad = SystemDef(rhs=lambda t, x, u: x * np.where(x > 1.0, np.nan, -1.0),
                        n=1, m=1)
        u = zero_signal(1, 1.0)
        with pytest.raises(DynamicsError) as single:
            simulate(bad, 0.0, [2.0], u, 1.0, 1e-2)
        with pytest.raises(DynamicsError) as batched:
            simulate_batch(bad, 0.0, [[0.5], [2.0], [3.0]], [u] * 3, 1.0, 1e-2)
        assert str(batched.value) == str(single.value)

    ROT = np.array([[-1.0, 2.0], [-2.0, -1.0]])

    @pytest.mark.parametrize("rhs", [
        lambda t, x, u: TestSimulateBatch.ROT @ x + u,  # broadcasts silently on (2, 2)
        lambda t, x, u: -x + float(u[0]) * np.ones(2),  # rejects a (2, 2) input
    ])
    def test_rhs_not_row_wise_falls_back_to_members(self, rhs):
        sysd = SystemDef(rhs=rhs, n=2, m=2)
        us = [constant_signal([0.5, 0.0], 2.0), constant_signal([-0.5, 0.0], 2.0)]
        xis = [[1.0, 0.0], [0.3, -2.0]]
        batch = simulate_batch(sysd, 0.0, xis, us, 2.0, 1e-2)
        for xi, u, tr in zip(xis, us, batch):
            assert_same_trajectory(tr, simulate(sysd, 0.0, xi, u, 2.0, 1e-2))

    MIXED = [constant_signal([0.3], 3.0),
             make_signal([(0.0, [0.9]), (1.1, [0.2])], horizon=2.5),
             make_signal([(0.0, [-0.4]), (0.45, [1.0])], horizon=3.0)]

    @pytest.mark.parametrize("rhs", [
        lambda t, x, u: -x + math.sin(t) * u,  # rejects a time column
        lambda t, x, u: -x * (1.0 + 0.5 * np.ravel(t)[0]) + u,  # reads row 0's time only
    ])
    def test_rhs_not_row_wise_in_time_falls_back_to_members(self, rhs):
        sysd = SystemDef(rhs=rhs, n=1, m=1)
        xis = [[1.0], [-0.5], [2.0]]
        batch = simulate_batch(sysd, 0.1, xis, self.MIXED, 3.0, 1e-2)
        for xi, u, tr in zip(xis, self.MIXED, batch):
            assert_same_trajectory(tr, simulate(sysd, 0.1, xi, u, 3.0, 1e-2))

    def test_time_varying_members_advance_together(self):
        """Members on different grids share one (B, n) step loop."""
        ce = counterexample_system()
        shapes = []
        sysd = SystemDef(rhs=lambda t, x, u: shapes.append(np.shape(x)) or ce.rhs(t, x, u),
                         n=1, m=1)
        xis = [[0.5], [-1.0], [0.0]]
        batch = simulate_batch(sysd, 0.2, xis, self.MIXED, 3.0, 7e-3)
        assert shapes.count((3, 1)) > 4 * 400
        assert shapes.count((1,)) == len(xis)  # only the row-wise check
        for xi, u, tr in zip(xis, self.MIXED, batch):
            assert_same_trajectory(tr, simulate(ce, 0.2, xi, u, 3.0, 7e-3))

    def test_mismatched_members_rejected(self):
        with pytest.raises(ParameterError):
            simulate_batch(linear_test_system(1.0), 0.0, [[1.0]],
                           [zero_signal(1, 1.0)] * 2, 1.0, 1e-2)
        with pytest.raises(ParameterError):
            simulate_batch(linear_test_system(1.0), [0.0, 0.5, 1.0], [[1.0]] * 2,
                           [zero_signal(1, 2.0)] * 2, 2.0, 1e-2)

    def test_own_start_end_and_times_bit_identical_to_simulate(self):
        """Each member keeps its own t0, t_end and requested times; the rhs reads t."""
        ce = counterexample_system()
        shapes = []
        sysd = SystemDef(rhs=lambda t, x, u: shapes.append(np.shape(x)) or ce.rhs(t, x, u),
                         n=1, m=1)
        t0s = [0.2, 1.35, 0.0, 2.5]
        t_ends = [4.0, 3.1, 5.25, 2.9]
        includes = [(0.37, 1.5), (), (4.4,), (2.6, 2.75, 2.8)]
        xis = [[0.5], [-1.0], [2.0], [0.25]]
        us = self.MIXED + [make_signal([(0.0, [0.5]), (2.7, [2.0])], horizon=4.0)]
        batch = simulate_batch(sysd, t0s, xis, us, t_ends, 7e-3, include_times=includes)
        # one lockstep run: all four rows step together, and each leaves the
        # batch on the step where its own grid ends
        steps = sorted(tr.times.size - 1 for tr in batch)
        assert len(set(steps)) == 4
        expected = [4 * (b - a) for a, b in zip([0] + steps, steps)]
        expected[0] += 1  # the row-wise check's batched call
        # the longest row runs its lone steps on scalars, after one scalar check
        # (one call on its (1, 1) row and one on its 0-d state)
        expected[3:] = [1, expected[3] + 1]
        assert [shapes.count(shape) for shape in ((4, 1), (3, 1), (2, 1), (1, 1), ())] \
            == expected
        for t0, xi, u, t_end, inc, tr in zip(t0s, xis, us, t_ends, includes, batch):
            assert_same_trajectory(tr, simulate(ce, t0, xi, u, t_end, 7e-3, include_times=inc))

    def test_own_steps_bit_identical_to_simulate(self):
        """Each member keeps its own step next to its own t0 and requested times."""
        ce = counterexample_system()
        t0s = [0.2, 1.35, 0.0, 0.2]
        steps = [7e-3, 1e-2, 3e-3, 5e-3]
        includes = [(0.37, 1.5), (), (2.6, 2.75), (0.37, 1.5)]
        xis = [[0.5], [-1.0], [2.0], [0.5]]
        us = self.MIXED + [self.MIXED[0]]
        batch = simulate_batch(ce, t0s, xis, us, 3.0, steps, include_times=includes)
        assert batch[0].times is not batch[3].times  # equal anchors, other step
        for t0, xi, u, h, inc, tr in zip(t0s, xis, us, steps, includes, batch):
            assert_same_trajectory(tr, simulate(ce, t0, xi, u, 3.0, h, include_times=inc))

    def test_zero_members_give_no_runs(self, monkeypatch):
        """A batch of no members is empty and never reaches the integrator;
        it raised from ``np.stack([])``."""
        def no_run(*args, **kwargs):
            raise AssertionError("the integrator ran for an empty batch")

        monkeypatch.setattr(sm, "_rk4", no_run)
        sysd = linear_test_system(1.0)
        assert simulate_batch(sysd, 0.0, [], [], 1.0, 1e-2) == []
        assert simulate_batch(sysd, [], [], [], [], [], include_times=[]) == []
        with pytest.raises(ParameterError):
            simulate_batch(sysd, [0.0], [], [], 1.0, 1e-2)

    def test_step_sequence_of_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            simulate_batch(linear_test_system(1.0), 0.0, [[1.0]] * 2,
                           [zero_signal(1, 1.0)] * 2, 1.0, [1e-2, 1e-2, 1e-2])

    def test_own_start_times_blowup_is_per_member(self):
        sq = SystemDef(rhs=lambda t, x, u: x ** 2 + (1.0 + t) * u, n=1, m=1)
        t0s = [0.0, 0.6, 1.3, 0.2]
        xis = [[0.1], [2.0], [-0.5], [1.5]]
        u = constant_signal([0.05], 3.0)
        batch = simulate_batch(sq, t0s, xis, [u] * 4, [1.5, 1.6, 2.5, 1.0], 1e-3)
        assert [tr.blown_up for tr in batch] == [False, True, False, True]
        for t0, xi, t_end, tr in zip(t0s, xis, [1.5, 1.6, 2.5, 1.0], batch):
            assert_same_trajectory(tr, simulate(sq, t0, xi, u, t_end, 1e-3))

    def test_first_error_in_input_order_with_own_start_times(self):
        """Members 1 and 2 both fail; member 1's error (its own t0) is raised."""
        bad = SystemDef(rhs=lambda t, x, u: x * np.where(x > 1.0, np.nan, -1.0),
                        n=1, m=1)
        u = zero_signal(1, 3.0)
        t0s, xis = [0.3, 0.5, 0.1], [[0.5], [2.0], [3.0]]
        with pytest.raises(DynamicsError) as second:
            simulate(bad, 0.5, [2.0], u, 2.0, 1e-2)
        with pytest.raises(DynamicsError) as third:
            simulate(bad, 0.1, [3.0], u, 2.0, 1e-2)
        assert str(second.value) != str(third.value)
        with pytest.raises(DynamicsError) as batched:
            simulate_batch(bad, t0s, xis, [u] * 3, 2.0, 1e-2)
        assert str(batched.value) == str(second.value)

    @staticmethod
    def stop_where_low(t, x, u):
        """``x^2 + u``, nonfinite once ``x < -1``."""
        return np.where(x < -1.0, np.nan, x ** 2 + u)

    @staticmethod
    def one_state_only(t, x, u):
        if np.ndim(x) != 1 or not isinstance(t, float):
            raise ValueError("one state and a float time at a time")
        return TestSimulateBatch.stop_where_low(t, x, u)

    @pytest.mark.parametrize("rhs", [stop_where_low, one_state_only])
    def test_mixed_outcomes_stop_row_by_row(self, rhs, monkeypatch):
        """Finishing, blowing-up and nonfinite rows share one step loop; each
        entry is its lone run, and the failing row's error is raised."""
        sysd = SystemDef(rhs=rhs, n=1, m=1)
        xis = [[0.1], [2.0], [-0.5], [0.3]]
        us = [constant_signal([v], 1.0) for v in (0.0, 0.0, -2.0, 0.5)]
        loops = []
        rk4 = sm._rk4

        def counted(*args):
            loops.append(1)
            return rk4(*args)

        monkeypatch.setattr(sm, "_rk4", counted)
        entries = sm._simulate_members(sysd, 0.0, xis, us, 1.0, 1e-2)
        assert len(loops) == 1
        assert [type(e).__name__ for e in entries] == \
            ["Trajectory", "Trajectory", "DynamicsError", "Trajectory"]
        assert [e.blown_up for e in entries if isinstance(e, Trajectory)] == [False, True, False]
        assert entries[1].blowup_time == 0.51
        for xi, u, entry in zip(xis, us, entries):
            if isinstance(entry, DynamicsError):
                with pytest.raises(DynamicsError) as lone:
                    simulate(sysd, 0.0, xi, u, 1.0, 1e-2)
                assert str(lone.value) == str(entry)
            else:
                assert_same_trajectory(entry, simulate(sysd, 0.0, xi, u, 1.0, 1e-2))
        with pytest.raises(DynamicsError, match=re.escape(
                "nonfinite state update at t=0.37 (x=[-0.99804618], u=[-2.])")):
            simulate(sysd, 0.0, [-0.5], us[2], 1.0, 1e-2)
        with pytest.raises(DynamicsError) as batched:
            simulate_batch(sysd, 0.0, xis, us, 1.0, 1e-2)
        assert str(batched.value) == str(entries[2])

    @pytest.mark.parametrize("cells", [2048, 3])
    @pytest.mark.parametrize("rhs", [stop_where_low, one_state_only])
    def test_rows_leave_in_step_count_order(self, rhs, cells, monkeypatch):
        """Five step counts, a blow-up and two nonfinite rows in one step loop; each
        entry is its lone run, and the raised error is that of the first failing
        member in input order (the longest run), not that of the failing row in
        the middle of the step-count order."""
        monkeypatch.setattr(sm, "_CELLS", cells)  # 3: blocks of one step while 3+ rows run
        sysd = SystemDef(rhs=rhs, n=1, m=1)
        xis = [[0.0], [0.1], [-0.5], [2.0], [0.3]]
        us = [constant_signal([-2.0], 3.0),
              make_signal([(0.0, [0.2]), (0.33, [-0.1])], horizon=1.0),
              constant_signal([-2.0], 2.0),
              zero_signal(1, 1.5),
              make_signal([(0.0, [0.5]), (0.25, [0.0])], horizon=0.5)]
        t_ends = [3.0, 1.0, 2.0, 1.5, 0.5]
        loops = []
        rk4 = sm._rk4

        def counted(*args):
            loops.append(1)
            return rk4(*args)

        monkeypatch.setattr(sm, "_rk4", counted)
        entries = sm._simulate_members(sysd, 0.0, xis, us, t_ends, 1e-2)
        assert len(loops) == 1
        assert [type(e).__name__ for e in entries] == \
            ["DynamicsError", "Trajectory", "DynamicsError", "Trajectory", "Trajectory"]
        assert entries[3].blown_up and entries[3].blowup_time == 0.51
        # step counts 300, 100, 200, 150, 50: row 2 fails mid-order, row 0 last
        assert list(np.argsort(t_ends)) == [4, 1, 3, 2, 0]
        for xi, u, t_end, entry in zip(xis, us, t_ends, entries):
            if isinstance(entry, DynamicsError):
                with pytest.raises(DynamicsError) as lone:
                    simulate(sysd, 0.0, xi, u, t_end, 1e-2)
                assert str(lone.value) == str(entry)
            else:
                assert_same_trajectory(entry, simulate(sysd, 0.0, xi, u, t_end, 1e-2))
        assert str(entries[0]) != str(entries[2])
        with pytest.raises(DynamicsError) as batched:
            simulate_batch(sysd, 0.0, xis, us, t_ends, 1e-2)
        assert str(batched.value) == str(entries[0])

    @pytest.mark.parametrize("t_end", [2.0, [2.0 - 0.01 * (i % 7) for i in range(30)]])
    def test_schedule_memory_stays_near_the_states(self, t_end):
        """Only the states grow with members times steps, not the step schedule."""
        sys1 = linear_test_system(1.0)
        us = [make_signal([(0.0, [0.1 * i]), (0.5 + 0.01 * i, [-0.2])], horizon=2.0)
              for i in range(30)]
        xis = [[0.05 * i] for i in range(30)]
        tracemalloc.start()
        try:
            batch = simulate_batch(sys1, 0.0, xis, us, t_end, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states_bytes = 30 * batch[0].times.size * 8
        assert batch[0].times.size == 2001
        assert peak < 3 * states_bytes


class TestScalarFed:
    """A lone run of a scalar system steps on float64 scalars when its rhs takes them;
    the same member inside a two-member batch, whose partner runs longer, steps on
    ``(2, 1)`` arrays, and the two take the same float steps."""

    U = make_signal([(0.0, [0.4]), (0.33, [-1.2]), (0.9, [1.7])], horizon=1.5)

    @staticmethod
    def reads_column(t, x, u):  # x[..., 0] needs an array state
        return (-1.5 * x[..., 0] + u[..., 0])[..., None]

    @pytest.mark.parametrize("rhs, xi, outcome, scalar_fed", [
        (linear_test_system(1.3).rhs, [1.0], "finished", True),
        (counterexample_system().rhs, [0.5], "finished", True),  # reads t, np.maximum
        (lambda t, x, u: x ** 2 + u, [2.0], "blown up", True),
        (lambda t, x, u: np.where(x > 0.45, np.nan, -x + u), [0.2], "nonfinite", True),
        # held in the rounding margin under the threshold: checked on every step, runs on
        (lambda t, x, u: 0.0 * x, [sm.BLOWUP_THRESHOLD * (1 - 1e-10)], "finished", True),
        (reads_column, [1.0], "finished", False),
        (lambda t, x, u: np.atleast_1d(-1.5 * x + u), [1.0], "finished", False),  # (1,) value
    ])
    def test_lone_run_equals_member_of_two(self, rhs, xi, outcome, scalar_fed):
        def run(t_ends, xis, us):
            shapes = []
            sysd = SystemDef(rhs=lambda t, x, u: shapes.append(np.shape(x)) or rhs(t, x, u),
                             n=1, m=1)
            return sm._simulate_members(sysd, 0.1, xis, us, t_ends, 1e-2)[0], shapes

        lone, lone_shapes = run(1.5, [xi], [self.U])
        member, member_shapes = run([1.5, 2.5], [xi, [0.0]], [self.U, zero_signal(1, 2.5)])
        if outcome == "nonfinite":
            assert isinstance(lone, DynamicsError)
            assert str(lone) == str(member)
            assert str(lone).startswith("nonfinite state update at t=")
        else:
            assert lone.times.tobytes() == member.times.tobytes()
            assert lone.states.tobytes() == member.states.tobytes()
            assert (lone.blown_up, lone.blowup_time) == (member.blown_up, member.blowup_time)
            assert lone.blown_up == (outcome == "blown up")
        # the member steps in the batch of two over its whole grid (140 steps,
        # stopped or not), after the row-wise check's batched call
        assert member_shapes.count((2, 1)) == 4 * 140 + 1
        # after the row-wise check (a (1,) row, then the (1, 1) batch), the scalar
        # check calls rhs on the 0-d state and, if that gives a 0-d value, on the row
        head = [(1,), (1, 1), ()] + [(1, 1)] * scalar_fed
        assert lone_shapes[:len(head)] == head
        assert set(lone_shapes[len(head):]) == {() if scalar_fed else (1, 1)}

    def test_lone_linear_run_calls_rhs_on_scalars(self):
        """A guard that the lone run of a scalar system does take the scalar steps."""
        lin, seen = linear_test_system(1.0).rhs, []
        sysd = SystemDef(rhs=lambda t, x, u: seen.append((type(t), np.ndim(x), np.ndim(u)))
                         or lin(t, x, u), n=1, m=1)
        tr = simulate(sysd, 0.0, [1.0], zero_signal(1, 1.0), 1.0, 1e-2)
        assert tr.times.size == 101
        assert seen[4:] == [(np.float64, 0, 0)] * 400
        assert tr.states.tobytes() == \
            simulate(linear_test_system(1.0), 0.0, [1.0], zero_signal(1, 1.0), 1.0,
                     1e-2).states.tobytes()


class TestBuiltInSystems:
    def test_linear_rhs(self):
        sys1 = linear_test_system(2.0)
        assert sys1.rhs(0.0, np.array([1.0]), np.array([0.0]))[0] == -2.0
        assert sys1.rhs(0.0, np.array([0.0]), np.array([2.0]))[0] == 2.0

    def test_linear_equilibrium_under_constant_input(self):
        sys1 = linear_test_system(2.0)
        tr = simulate(sys1, 0.0, [0.0], constant_signal([3.0], 20.0), 20.0, 1e-3)
        assert tr.states[-1][0] == pytest.approx(1.5, abs=1e-6)

    def test_counterexample_rhs_values(self):
        ce = counterexample_system()
        assert ce.rhs(0.0, np.array([0.0]), np.array([1.0]))[0] == 1.0
        assert ce.rhs(9.0, np.array([0.5]), np.array([0.5]))[0] == -0.5

    def test_counterexample_bounded_under_constants(self):
        """Constant inputs never push the state past their own level."""
        ce = counterexample_system()
        runs = [(c, t0, t0 + 10.0) for c in (0.1, 1.0) for t0 in (0.0, 10.0, 100.0)]
        trajs = simulate_batch(ce, [t0 for _, t0, _ in runs], [[0.0]] * len(runs),
                               [constant_signal([c], t_end) for c, _, t_end in runs],
                               [t_end for _, _, t_end in runs],
                               [min(1e-3, 2.0 / (3.0 + t_end)) for _, _, t_end in runs])
        for (c, _, _), tr in zip(runs, trajs):
            assert float(np.max(tr.norms())) <= c + 0.01


class TestLipschitzProbe:
    def test_contraction_state_ratio(self):
        """Disturbed contraction keeps the sensitivity ratio at one."""
        rep = lipschitz_probes(perturbed_decay_system(), [(2.0, 2.0, 20, 9)], step=2e-3)[0]
        assert rep.n_blowups == 0
        assert rep.state_ratio_max <= 1.0 + 1e-6

    def test_time_invariant_shift_ratio_bounded(self):
        """For pure decay the shift ratio is at most sup |xdot| <= R."""
        pure = SystemDef(rhs=lambda t, x, d: -x, n=1, m=1)
        R = 2.0
        rep = lipschitz_probes(pure, [(R, 2.0, 15, 4)], step=2e-3)[0]
        assert rep.shift_ratio_max <= R * (1.0 + 1e-3)

    def test_identical_states_give_zero_numerator(self):
        rep = lipschitz_probes(perturbed_decay_system(), [(1e-12, 1.0, 5, 1)], step=5e-3)[0]
        assert rep.state_ratio_max <= 1.0 + 1e-6

    @staticmethod
    def per_sample_reference(sys, R, T, samples, seed, step, pieces=8, query_points=25):
        """The probe as a loop of one batch (tr1, tr2) and one shifted run (tr3) per sample."""
        rng = np.random.default_rng(seed)
        state_max = shift_max = 0.0
        n_blow = 0
        for _ in range(samples):
            t0 = float(rng.uniform(0.0, T))
            xi1 = _random_ball(rng, sys.n, R)
            xi2 = _random_ball(rng, sys.n, R)
            h = float(rng.uniform(0.0, 1.0))
            d = _random_disturbance(rng, sys.m, t0, T + h + 1.0, pieces)
            query = t0 + np.linspace(0.0, T, query_points)
            try:
                tr1, tr2 = simulate_batch(sys, t0, [xi1, xi2], [d, d], t0 + T, step,
                                          include_times=query)
                if tr1.blown_up or tr2.blown_up:
                    n_blow += 1
                    continue
                sep0 = float(np.linalg.norm(xi1 - xi2))
                s_ratio = 0.0
                if sep0 > 0:
                    s_ratio = float(np.max(np.linalg.norm(tr1.states - tr2.states, axis=1))) / sep0
                h_ratio = 0.0
                if h > 1e-9:
                    tr3 = simulate(sys, t0 + h, xi1, d, t0 + h + T, step, include_times=query + h)
                    if tr3.blown_up:
                        n_blow += 1
                        continue
                    a = np.vstack([tr1.state_at(q) for q in query])
                    b = np.vstack([tr3.state_at(q + h) for q in query])
                    h_ratio = float(np.max(np.linalg.norm(a - b, axis=1))) / h
                state_max = max(state_max, s_ratio)
                shift_max = max(shift_max, h_ratio)
            except DynamicsError:
                n_blow += 1
        return state_max, shift_max, n_blow

    @pytest.mark.parametrize("case", ["perturbed_decay", "blowup"])
    def test_one_batch_matches_per_sample_loop(self, case):
        """The same ratios bit for bit and the same blow-up count as the per-sample runs."""
        if case == "perturbed_decay":
            sysd, R, T = perturbed_decay_system(), 2.0, 2.0
        else:  # xdot = x^2 + d escapes within T from x0 >~ 1/T
            sysd, R, T = SystemDef(rhs=lambda t, x, d: x ** 2 + d, n=1, m=1), 1.5, 3.0
        rep = lipschitz_probes(sysd, [(R, T, 10, 3)], step=2e-3)[0]
        ref = self.per_sample_reference(sysd, R, T, samples=10, seed=3, step=2e-3)
        assert (rep.state_ratio_max, rep.shift_ratio_max, rep.n_blowups) == ref
        if case == "blowup":
            assert 0 < rep.n_blowups < 10

    def test_specs_share_one_step_loop_and_match_each_alone(self, monkeypatch):
        """Specs of mixed T (so mixed step counts), one with blow-ups, run as one
        step loop, and each report is its lone probe's bit for bit."""
        square = SystemDef(rhs=lambda t, x, d: x ** 2 + d, n=1, m=1)
        specs = [(0.4, 0.5, 5, 9), (1.5, 3.0, 10, 3), (0.8, 1.2, 6, 4)]
        loops = []
        rk4 = sm._rk4

        def counted(*args):
            loops.append(1)
            return rk4(*args)

        monkeypatch.setattr(sm, "_rk4", counted)
        reps = lipschitz_probes(square, specs, step=2e-3)
        assert len(loops) == 1
        assert reps == [lipschitz_probes(square, [spec], step=2e-3)[0] for spec in specs]
        assert reps[0].n_blowups == 0 < reps[1].n_blowups

    def test_one_lockstep_run_per_probe(self, monkeypatch):
        """All probes of a call share one batched integration (2 per sample
        before), also when some of them blow up (31 step loops before)."""
        calls = []
        rk4 = sm._rk4

        def counted(rhs, x, *args):
            calls.append(x.shape)
            return rk4(rhs, x, *args)

        monkeypatch.setattr(sm, "_rk4", counted)
        rep = lipschitz_probes(perturbed_decay_system(), [(2.0, 2.0, 6, 9)], step=2e-3)[0]
        assert rep.n_blowups == 0
        assert len(calls) == 1 and calls[0][0] >= 2 * 6
        calls.clear()
        square = SystemDef(rhs=lambda t, x, d: x ** 2 + d, n=1, m=1)
        rep = lipschitz_probes(square, [(1.5, 3.0, 10, 3)])[0]
        assert rep.n_blowups == 4
        assert len(calls) == 1 and calls[0][0] >= 2 * 10


def _csv_writer_text(path, header, rows):
    """What ``csv.writer`` writes for ``header`` and the ``repr`` of every cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


class TestTrajectoryCsv:
    @pytest.mark.parametrize("n_rows", [5, 2 * 4096 + 3])
    def test_bytes_equal_csv_writer(self, tmp_path, n_rows):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-300, 300, (n_rows, 2))
        states[:4] = [[-0.0, 1e-300], [math.inf, -math.inf], [math.nan, 0.0], [1.0, -1e-300]]
        traj = Trajectory(times=np.linspace(0.0, 3.0, n_rows), states=states)
        trajectory_to_csv(traj, tmp_path / "new.csv")
        expected = _csv_writer_text(tmp_path / "ref.csv", ["t", "x_1", "x_2"],
                                    np.column_stack([traj.times, states]))
        assert (tmp_path / "new.csv").read_bytes() == expected
