"""Deterministic ODE simulation with time-discontinuous dynamics.

The integrator is classic fixed-step fourth-order Runge-Kutta with one
twist: integration sub-steps never straddle an input breakpoint or a
declared discontinuity time of the dynamics.  For piecewise-constant
inputs and dynamics continuous off the declared set, the right-hand side
is smooth on every sub-interval, so the method keeps its full order.

Blow-up is modeled by a hard threshold on the state norm; exceeding it
stops integration and marks the trajectory.  One step loop serves a
batch of states, each on its own anchor grid; a lone run is a batch of one.
While one row of a scalar system is left in the batch (all of a lone run),
the same loop steps it on float64 scalars if its ``rhs`` takes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DynamicsError, ParameterError
from .signals import Signal, _write_csv, make_signal

__all__ = [
    "SystemDef",
    "Trajectory",
    "LipschitzReport",
    "simulate",
    "simulate_batch",
    "counterexample_system",
    "linear_test_system",
    "perturbed_decay_system",
    "lipschitz_probes",
    "trajectory_to_csv",
    "SYSTEM_REGISTRY",
]

BLOWUP_THRESHOLD = 1e9
_CELLS = 2048  # rows times steps of the step schedule built at once
_COHORT = 1.25  # largest ratio of the step counts of rows stored in one states array


@dataclass(frozen=True)
class SystemDef:
    """Time-varying dynamics ``xdot = rhs(t, x, u)``.

    ``rhs`` acts row-wise: given a ``(B, 1)`` column of times, states of
    shape ``(B, n)`` and inputs of shape ``(B, m)`` it returns the
    ``(B, n)`` stack of the per-row values, as :func:`simulate_batch`
    passes them (and checks once per call); one that fails the check is
    called row by row, with a float time, an ``(n,)`` state and ``(m,)`` input.
    For ``n == m == 1``, a batch with one row left (a lone run throughout)
    calls ``rhs`` with a float64 scalar time, state and input, if a call at
    the row's first such step gives a 0-d value bit-equal to the batched one
    (checked once per run); otherwise it keeps the ``(1, 1)`` arrays.
    ``discontinuity_times`` samples the zero-measure set where the dynamics
    may jump in ``t``; the integrator lands on them exactly.
    """

    rhs: Callable
    n: int
    m: int
    discontinuity_times: tuple = ()
    name: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Simulated solution samples on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    blown_up: bool = False
    blowup_time: Optional[float] = None

    def state_at(self, t):
        """State at a grid time ``t``, or the ``(k, n)`` states at an array of ``k`` grid
        times (each on the grid up to rounding)."""
        q = np.atleast_1d(np.asarray(t, dtype=float))
        tol = 1e-9 * np.maximum(1.0, np.abs(q))
        idx = np.searchsorted(self.times, q)
        on = [(j >= 0) & (j < self.times.size)
              & (np.abs(self.times[np.clip(j, 0, self.times.size - 1)] - q) <= tol)
              for j in (idx, idx - 1)]
        if not np.all(on[0] | on[1]):
            raise ParameterError(f"time {float(q[np.argmin(on[0] | on[1])])} is not on the "
                                 f"trajectory grid")
        rows = np.where(on[0], idx, idx - 1)
        return self.states[rows] if np.ndim(t) else self.states[rows[0]]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _check_run(sys: SystemDef, t0: float, u: Signal, t_end: float, step: float) -> None:
    for name, value in (("t0", t0), ("t_end", t_end), ("step", step)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if t_end <= t0:
        raise ParameterError(f"t_end {t_end} must exceed t0 {t0}")
    if t0 < 0:
        raise ParameterError(f"t0 must be nonnegative, got {t0}")
    if u.dim != sys.m:
        raise ParameterError(f"input dim {u.dim} does not match system m {sys.m}")


def _plan(sys: SystemDef, t0: float, u: Signal, t_end: float, step: float,
          include_times: Sequence[float], grids: dict):
    """Grid of one member's RK4 run and its segments' first steps, starts, step lengths, inputs.

    The anchors (input breakpoints and horizon, declared discontinuities,
    requested times) inside ``(t0, t_end)`` split the run into segments of
    equal steps, and a last segment of no steps starts at ``t_end``, so step
    ``k`` of a segment is at ``start + (k - first) * h``.  Members with equal
    anchors and step share one read-only ``(grid, first, starts, hs)``, kept
    in ``grids``; only the inputs (at every anchor) are built per member.
    """
    _check_run(sys, t0, u, t_end, step)
    inside = [*u.breakpoints, u.horizon, *sys.discontinuity_times, *include_times]
    inside = {float(x) for x in inside if t0 < x < t_end}
    anchors = tuple(sorted({float(t0), float(t_end)} | inside))
    if (anchors, step) not in grids:
        starts = np.array(anchors)
        nsub = np.maximum(1, np.ceil(np.diff(starts) / step - 1e-12).astype(np.int64))
        hs = np.append(np.diff(starts) / nsub, 0.0)
        first = np.concatenate([[0], np.cumsum(nsub)])
        seg = np.repeat(np.arange(starts.size), np.append(nsub, 1))
        grid = starts[seg] + (np.arange(seg.size) - first[seg]) * hs[seg]
        for a in (grid, first, starts, hs):
            a.setflags(write=False)
        grids[anchors, step] = grid, first, starts, hs
    grid, first, starts, hs = grids[anchors, step]
    seg_u = u.values[np.searchsorted(u.breakpoints, starts, side="right") - 1]
    seg_u[starts >= u.horizon] = 0.0
    return grid, first, starts, hs, seg_u


def _lockstep_blocks(plans, m: int, n: int):
    """The :func:`_rk4` schedule of members sorted by step count, refilled in buffers made once.

    The members' segment tables are joined into one, keyed ``row * stride +
    first step``, so one ``searchsorted`` finds the segment of every row at
    every step of a block.  A block starts at step ``k0`` with the rows
    ``lo:`` whose grids have not ended and stops where the shortest of them
    ends, or at ``_CELLS`` cells of rows times steps.  Yields ``(lo, times,
    hs, h2s, mids, h6s, inputs, xs)``: ``times`` has the end of the last step
    too, and ``xs`` receives the block's states.
    """
    counts = np.array([plan[0].size - 1 for plan in plans])
    rows, stride = len(plans), int(counts[-1]) + 1
    keys = np.concatenate([i * stride + plan[1] for i, plan in enumerate(plans)])
    starts, hs_all = (np.concatenate([plan[j] for plan in plans]) for j in (2, 3))
    us_all = np.concatenate([plan[4] for plan in plans])
    row_keys = (np.arange(rows) * stride)[:, None]
    cap = min(max(_CELLS, rows), rows * int(counts[-1])) + rows  # times take one step more
    q_buf, k_buf = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
    times_buf, h_buf, h2_buf, mid_buf, h6_buf = (np.empty(cap) for _ in range(5))
    u_buf, x_buf = np.empty(cap * m), np.empty(cap * n)
    k0 = lo = 0
    while lo < rows:
        live = rows - lo
        w = min(max(1, _CELLS // live), int(counts[lo]) - k0)
        shape = (w + 1, live, 1)
        q = q_buf[:(w + 1) * live].reshape(shape)
        np.add(np.arange(k0, k0 + w + 1)[:, None, None], row_keys[lo:], out=q)
        seg = np.searchsorted(keys, q, side="right")
        seg -= 1
        times, hs, mids = (buf[:(w + 1) * live].reshape(shape)
                           for buf in (times_buf, h_buf, mid_buf))
        k = k_buf[:(w + 1) * live].reshape(shape)
        np.take(keys, seg, out=k, mode="clip")
        np.subtract(q, k, out=k)
        np.take(hs_all, seg, out=hs, mode="clip")
        np.multiply(k, hs, out=times)
        np.take(starts, seg, out=mids, mode="clip")
        np.add(mids, times, out=times)  # start + (k - first) * h, as in the grid
        hs, mids = hs[:w], mids[:w]
        h2s, h6s = (buf[:w * live].reshape(w, live, 1) for buf in (h2_buf, h6_buf))
        np.multiply(0.5, hs, out=h2s)
        np.add(times[:w], h2s, out=mids)
        np.divide(hs, 6.0, out=h6s)
        us = u_buf[:w * live * m].reshape(w, live, m)
        np.take(us_all, seg[:w, :, 0], axis=0, out=us, mode="clip")
        yield lo, times, hs, h2s, mids, h6s, us, x_buf[:w * live * n].reshape(w, live, n)
        k0 += w
        lo = int(np.searchsorted(counts, k0, side="right"))


def _takes_scalars(rhs, t, x, u) -> bool:
    """Whether ``rhs`` at the float64 scalars of the ``(1, 1)`` time, state and input of a
    lone row gives a 0-d value bit-equal to its value on the row."""
    try:
        value = rhs(t[0, 0], x[0, 0], u[0, 0])
        return np.ndim(value) == 0 and (np.asarray(value, dtype=float).tobytes()
                                         == np.asarray(rhs(t, x, u), dtype=float).tobytes())
    except Exception:  # rhs rejects a 0-d state
        return False


def _rk4(rhs, x, counts, blocks, limit2: float):
    """RK4 on the ``(B, n)`` states ``x`` of rows sorted by step count ``counts``, fed by
    :func:`_lockstep_blocks`.

    Step ``j`` of a block takes each of its rows ``lo:`` from ``times[j]``
    over ``hs[j]`` with ``inputs[j]``; a row whose grid has ended has left
    the batch.  A block with one row of a scalar system (``n == m == 1``)
    takes the same steps on float64 scalars, read from 1-D views of its
    arrays, if ``rhs`` passes :func:`_takes_scalars` at the first such
    block's first step (once per run), so a lone run pays no array calls.
    A row stops at the first step ``k`` after which its squared
    norm is nonfinite (with a :class:`DynamicsError`) or not ``<= limit2``
    (blown up), and is held at zero from then on.  The states are stored
    per cohort, a run of rows whose step counts stay within ``_COHORT`` of
    its first, so no row is padded to a much longer one.  Returns each
    row's states through its last step (its step ``k`` if it stopped, or
    the step where the last row stopped), each row's stopping step or None,
    and the errors by row.
    """
    rows, r0, cohorts = x.shape[0], 0, []  # cohorts: (first row, (rows, steps + 1, n) states)
    while r0 < rows:
        r1 = int(np.searchsorted(counts, counts[r0] * _COHORT, side="right"))
        cohorts.append((r0, np.empty((r1 - r0, counts[r1 - 1] + 1, x.shape[1]))))
        cohorts[-1][1][:, 0] = x[r0:r1]
        r0 = r1

    def store(xs, lo, k):
        for r0, states in cohorts:
            if r0 + len(states) > lo:
                a = max(lo, r0)
                states[a - r0:, k + 1:k + 1 + len(xs)] = \
                    xs[:, a - lo:r0 + len(states) - lo].swapaxes(0, 1)

    def results():
        out = []
        for r0, states in cohorts:
            for i in range(r0, r0 + len(states)):
                last = counts[i] if stops[i] is None else stops[i] + 1
                out.append(states[i - r0, :last + 1])
        return out, stops, errors

    # the summed squared norm bounds every row's; the margin keeps rounding
    # from hiding a row past limit2
    bound = limit2 * (1.0 - 1e-9)
    stops, errors, running = [None] * rows, {}, None  # running: live rows' mask once one stopped
    k = lo_prev = 0
    scalar = None  # whether rhs takes scalars, checked at the first block of one row (n == m == 1)
    for lo, times, hs, h2s, mids, h6s, inputs, xs in blocks:
        if lo > lo_prev:  # the rows lo_prev:lo have left
            x = x[lo - lo_prev:]
            running = None if running is None or running[lo - lo_prev:].all() \
                else running[lo - lo_prev:]
            lo_prev = lo
            if running is not None and not running.any():  # the rows left have all stopped
                return results()
        if scalar is None and xs.shape[1:] == (1, 1) and inputs.shape[2] == 1:
            scalar = _takes_scalars(rhs, times[0], x, inputs[0])  # later blocks have one row too
        feed, out = (times, hs, h2s, mids, h6s, inputs), xs
        if scalar:  # its row is running, as the loop returns once all rows left stopped
            feed, out, x = [a.reshape(-1) for a in feed], xs.reshape(-1), np.ravel(x)[0]
        for j, (t, h, h2, mid, h6, u) in enumerate(zip(*feed)):
            k1 = rhs(t, x, u)
            k2 = rhs(mid, x + h2 * k1, u)
            k3 = rhs(mid, x + h2 * k2, u)
            k4 = rhs(t + h, x + h * k3, u)
            x_new = x + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            x_old, x = x, (x_new if running is None else np.where(running, x_new, x))
            out[j] = x
            if not (x * x if scalar else float(np.vdot(x, x))) <= bound:
                rows_x, rows_old = np.atleast_2d(x, x_old)  # x itself, or the lone row as (1, 1)
                for i in range(len(rows_x)):  # a stopped row is zero and passes
                    nrm2 = float(np.vdot(rows_x[i], rows_x[i]))
                    if not nrm2 <= limit2:
                        if not math.isfinite(nrm2):
                            errors[lo + i] = DynamicsError(
                                f"nonfinite state update at t={float(times[j + 1, i, 0])} "
                                f"(x={rows_old[i]}, u={inputs[j, i]})")
                        stops[lo + i], rows_x[i] = k + j, 0.0
                if None not in stops[lo:]:
                    store(xs[:j + 1], lo, k)
                    return results()
                if not scalar:  # a lone row under limit2 after all runs on as it was
                    running = np.array([[stop is None] for stop in stops[lo:]])
        store(xs, lo, k)
        k += len(hs)
    return results()


def simulate(sys: SystemDef, t0: float, xi, u: Signal, t_end: float,
             step: float, include_times: Sequence[float] = ()) -> Trajectory:
    """Integrate ``xdot = rhs(t, x, u(t))`` from ``(t0, xi)`` to ``t_end``.

    Sub-steps are shortened so that every anchor (input breakpoint, input
    horizon, declared discontinuity, requested time) is hit exactly; the
    input is sampled at the left end of each sub-step, consistent with
    right-open piecewise-constant semantics.  This is :func:`simulate_batch`
    for a batch of one.
    """
    return simulate_batch(sys, t0, [xi], [u], t_end, step, include_times)[0]


def _as_rowwise(fn, t, *rows):
    """``fn`` if one call at the times ``t`` (a ``(k, 1)`` column for an ``rhs``) on the stacked
    ``rows`` equals its calls on each row with a float time, else ``fn`` called row by row."""
    try:
        each = [fn(float(ti), *row) for ti, *row in zip(np.ravel(t), *rows)]
        if np.array_equal(fn(t, *(np.stack(r) for r in rows)), each):
            return fn
    except Exception:  # fn rejects a 2-D state or an array of times
        pass

    def row_by_row(t, x, *more):
        out = [fn(float(ti), *row) for ti, *row in zip(np.ravel(t), x, *more)]
        return np.reshape(out, x.shape[:np.ndim(t)])  # (B, n) for an rhs, (S,) for a V
    return row_by_row


def _simulate_members(sys: SystemDef, t0, xis, us: Sequence[Signal], t_end, step,
                      include_times=()) -> list:
    """:func:`simulate_batch`, with the :class:`DynamicsError` of a failing member in its entry."""
    t0s, t_ends, steps = ([v] * len(us) if np.ndim(v) == 0 else list(v) for v in (t0, t_end, step))
    shared = len(include_times) == 0 or np.ndim(include_times[0]) == 0
    includes = [include_times] * len(us) if shared else list(include_times)
    if not len(xis) == len(t0s) == len(t_ends) == len(steps) == len(includes) == len(us):
        raise ParameterError(f"per-member arguments for {len(us)} inputs differ in length")
    if not us:
        return []
    xs = [np.array(xi, dtype=float).reshape(sys.n) for xi in xis]
    grids = {}
    plans = [_plan(sys, t0, u, t_end, h, inc, grids)
             for t0, u, t_end, h, inc in zip(t0s, us, t_ends, steps, includes)]
    t_col = (np.asarray(t0s) + np.arange(len(xs)) * np.asarray(steps))[:, None]
    u0 = [u.eval(a) for u, a in zip(us, t0s)]
    rhs = _as_rowwise(sys.rhs, t_col, xs, u0)
    counts = np.array([plan[0].size - 1 for plan in plans])
    order = np.argsort(counts, kind="stable")
    states, stops, errors = _rk4(rhs, np.stack(xs)[order], counts[order],
                                 _lockstep_blocks([plans[i] for i in order], sys.m, sys.n),
                                 BLOWUP_THRESHOLD * BLOWUP_THRESHOLD)
    trajs = [None] * len(plans)
    for row, i in enumerate(order):
        grid, k = plans[i][0], stops[row]
        if row in errors:
            trajs[i] = errors[row]
        elif k is None:
            trajs[i] = Trajectory(times=grid, states=states[row])
        else:
            trajs[i] = Trajectory(times=grid[:k + 2], states=states[row], blown_up=True,
                                  blowup_time=float(grid[k + 1]))
    return trajs


def simulate_batch(sys: SystemDef, t0, xis, us: Sequence[Signal], t_end, step,
                   include_times=()) -> list:
    """:func:`simulate` for the members ``(xis[i], us[i])``, one list entry each.

    ``t0``, ``t_end``, ``step`` and ``include_times`` are shared or given per
    member; a per-member argument of the wrong length is a :class:`ParameterError`.
    No members give ``[]``.  All members advance in lockstep by step index as one ``(B, n)``
    state, each on its own anchor grid: it gets its own time, step length and input
    on every step and leaves the batch once its grid has ended, so it takes
    exactly the float steps of its lone :func:`simulate` run.  Members with
    equal anchors and step share one read-only ``times`` array.  The step schedule
    is built in blocks of at most ``_CELLS`` rows times steps, and the
    states of members with step counts within ``_COHORT`` of each other
    share one array, so only the states grow with members times steps.
    ``sys.rhs`` is called on the whole batch when it
    acts row-wise, in ``t`` too: one batched call at distinct per-row times
    is compared exactly with the per-row calls, and on any difference or
    exception it is called row by row inside the same step loop.  With one
    row of a scalar system left (a batch of one throughout), a row-wise
    ``rhs`` is called on float64 scalars if it passes a once-per-run check
    that its 0-d value is bit-equal to its batched one; the float operations,
    and so the states, are unchanged.  A member
    that blows up or turns nonfinite stops alone, so blow-up flags and times
    are per member; the first failing member's (in input order)
    :class:`DynamicsError` is raised after all ran.
    """
    trajs = _simulate_members(sys, t0, xis, us, t_end, step, include_times)
    for error in (traj for traj in trajs if isinstance(traj, DynamicsError)):
        raise error
    return trajs


# ---------------------------------------------------------------------------
# built-in systems


def linear_test_system(lam: float) -> SystemDef:
    """Scalar testbed ``xdot = -lam*x + u``; the canonical dissipative system."""
    if lam <= 0:
        raise ParameterError(f"decay rate must be positive, got {lam}")

    def rhs(t, x, u, _lam=float(lam)):
        return -_lam * x + u

    return SystemDef(rhs=rhs, n=1, m=1, name=f"linear(lam={lam})")


def counterexample_system() -> SystemDef:
    """Scalar system ``xdot = -x + (1+t)*max(u - |x|, 0)``.

    The ramp gain ``(1+t)`` makes late, short input pulses arbitrarily
    effective relative to their energy, which defeats any fixed integral or
    power gain while constant inputs stay harmless.
    """

    def rhs(t, x, u):
        return -x + (1.0 + t) * np.maximum(u - np.abs(x), 0.0)

    return SystemDef(rhs=rhs, n=1, m=1, name="counterexample")


def perturbed_decay_system() -> SystemDef:
    """Scalar disturbed contraction ``xdot = -x*(1 + 0.5*d)`` with ``|d| <= 1``."""

    def rhs(t, x, d):
        return -x * (1.0 + 0.5 * d)

    return SystemDef(rhs=rhs, n=1, m=1, name="perturbed_decay")


SYSTEM_REGISTRY = {
    "linear": linear_test_system,
    "counterexample": counterexample_system,
    "perturbed_decay": perturbed_decay_system,
}


# ---------------------------------------------------------------------------
# Lipschitz probes


@dataclass(frozen=True)
class LipschitzReport:
    """Empirical solution-sensitivity ratios over seeded random probes.

    ``state_ratio_max`` bounds ``|x(t; xi1) - x(t; xi2)| / |xi1 - xi2|`` and
    ``shift_ratio_max`` bounds ``|x(t+h; t0+h) - x(t; t0)| / h`` over the
    probe set.  Ratios are lower estimates of the true constants.
    """

    state_ratio_max: float
    shift_ratio_max: float
    n_blowups: int


def _random_ball(rng, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        return np.zeros(dim)
    r = radius * rng.uniform() ** (1.0 / dim)
    return v / norm * r


def _disturbance(vals: list, t_start: float, span: float) -> Signal:
    """The disturbance with the values ``vals`` on equal pieces of ``[t_start, t_start + span)``."""
    dim = len(vals[0])
    edges = t_start + span * np.arange(len(vals)) / len(vals)
    sig_pieces = [(0.0, np.zeros(dim))] + list(zip(edges, vals))
    return make_signal(sig_pieces, horizon=t_start + span, dim=dim)


def _random_disturbance(rng, dim: int, t_start: float, span: float, pieces: int) -> Signal:
    return _disturbance([_random_ball(rng, dim, 1.0) for _ in range(pieces)], t_start, span)


def lipschitz_probes(sys: SystemDef, specs: Sequence[tuple], step: float = 1e-3,
                     pieces: int = 8, query_points: int = 25) -> list:
    """Estimate solution Lipschitz constants of the disturbed system, once per spec.

    The system is driven by piecewise-constant disturbances in the unit
    ball, fed in as its input.  Each spec ``(R, T, samples, seed)`` draws
    ``samples`` probes from its own seeded stream: an initial time in
    ``[0, T]``, two initial states in the radius-``R`` ball and a shift
    ``h`` in ``[0, 1]``; a probe measures the two sensitivity ratios along
    matched time grids.  The probes of all specs run as one batch; a probe
    with a blown-up or failed run counts once in its spec's ``n_blowups``.
    Returns one :class:`LipschitzReport` per spec.
    """
    for R, T, samples, _ in specs:
        if R <= 0 or T <= 0:
            raise ParameterError("R and T must be positive")
        if samples < 1:
            raise ParameterError("need at least one probe sample")

    draws, members = [], []  # members: (t0, xi, d, include_times, t_end) of tr1, tr2, shifted tr3
    for R, T, samples, seed in specs:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            t0 = float(rng.uniform(0.0, T))
            xi1 = _random_ball(rng, sys.n, R)
            xi2 = _random_ball(rng, sys.n, R)
            h = float(rng.uniform(0.0, 1.0))
            d = _random_disturbance(rng, sys.m, t0, T + h + 1.0, pieces)
            query = t0 + np.linspace(0.0, T, query_points)
            draws.append((xi1, xi2, h, query))
            members += [(t0, xi1, d, query, t0 + T), (t0, xi2, d, query, t0 + T)]
            members += [(t0 + h, xi1, d, query + h, t0 + h + T)] * (h > 1e-9)
    t0s, xis, ds, includes, t_ends = zip(*members)
    trajs = iter(_simulate_members(sys, t0s, xis, ds, t_ends, step, includes))
    draws = iter(draws)
    reports = []
    for _, _, samples, _ in specs:
        state_max, shift_max, n_blow = 0.0, 0.0, 0
        for xi1, xi2, h, query in (next(draws) for _ in range(samples)):
            runs = [next(trajs) for _ in range(2 + (h > 1e-9))]
            if any(isinstance(tr, DynamicsError) or tr.blown_up for tr in runs):
                n_blow += 1  # once per sample, whichever of its runs failed
                continue
            tr1, tr2, *tr3 = runs
            sep0 = float(np.linalg.norm(xi1 - xi2))
            diffs = np.linalg.norm(tr1.states - tr2.states, axis=1)
            s_ratio = float(np.max(diffs)) / sep0 if sep0 > 0 else 0.0
            h_ratio = 0.0
            if tr3:
                a, b = tr1.state_at(query), tr3[0].state_at(query + h)
                h_ratio = float(np.max(np.linalg.norm(a - b, axis=1))) / h
            state_max = max(state_max, s_ratio)
            shift_max = max(shift_max, h_ratio)
        reports.append(LipschitzReport(
            state_ratio_max=state_max,
            shift_ratio_max=shift_max,
            n_blowups=n_blow,
        ))
    return reports


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write columns ``t, x_1..x_n`` with full float precision."""
    n = traj.states.shape[1]
    _write_csv(path, ["t"] + [f"x_{i + 1}" for i in range(n)], [traj.times, *traj.states.T])
