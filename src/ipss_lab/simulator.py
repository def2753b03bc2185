"""Deterministic ODE simulation with time-discontinuous dynamics.

The integrator is classic fixed-step fourth-order Runge-Kutta with one
twist: integration sub-steps never straddle an input breakpoint or a
declared discontinuity time of the dynamics.  For piecewise-constant
inputs and dynamics continuous off the declared set, the right-hand side
is smooth on every sub-interval, so the method keeps its full order.

Blow-up is modeled by a hard threshold on the state norm; exceeding it
stops integration and marks the trajectory.  One step loop serves a
batch of states, each on its own anchor grid; a lone run is a batch of one.
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
    "lipschitz_probe",
    "trajectory_to_csv",
    "SYSTEM_REGISTRY",
]

BLOWUP_THRESHOLD = 1e9
_BLOCK = 256  # lockstep steps whose schedule is built at once


@dataclass(frozen=True)
class SystemDef:
    """Time-varying dynamics ``xdot = rhs(t, x, u)``.

    ``rhs`` acts row-wise: given a ``(B, 1)`` column of times, states of
    shape ``(B, n)`` and inputs of shape ``(B, m)`` it returns the
    ``(B, n)`` stack of the per-row values, as :func:`simulate_batch`
    passes them (and checks once per call); one that fails the check is
    called row by row, with a float time, an ``(n,)`` state and ``(m,)`` input.
    ``discontinuity_times`` samples the zero-measure set where the dynamics
    may jump in ``t``; the integrator lands on them exactly.  When
    ``lipschitz_hint`` is present, solutions are treated as unique;
    otherwise probe reports flag uniqueness as untested.
    """

    rhs: Callable
    n: int
    m: int
    discontinuity_times: tuple = ()
    lipschitz_hint: Optional[Callable] = None
    name: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Simulated solution samples on a strictly increasing time grid."""

    times: np.ndarray
    states: np.ndarray
    blown_up: bool = False
    blowup_time: Optional[float] = None

    def state_at(self, t: float) -> np.ndarray:
        """State at a grid time ``t`` (must be on the grid up to rounding)."""
        tol = 1e-9 * max(1.0, abs(t))
        idx = int(np.searchsorted(self.times, t))
        for j in (idx, idx - 1):
            if 0 <= j < self.times.size and abs(float(self.times[j]) - t) <= tol:
                return self.states[j]
        raise ParameterError(f"time {t} is not on the trajectory grid")

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
    """Grid of one member's RK4 run and its segments' first steps, step lengths and inputs.

    The anchors (input breakpoints and horizon, declared discontinuities,
    requested times) inside ``(t0, t_end)`` split the run into segments.
    Members with equal anchors and step share one read-only
    ``(grid, first, seg_h)``, kept in ``grids``; only the inputs are built
    per member.
    """
    _check_run(sys, t0, u, t_end, step)
    inside = [*u.breakpoints, u.horizon, *sys.discontinuity_times, *include_times]
    inside = {float(x) for x in inside if t0 < x < t_end}
    anchors = tuple(sorted({float(t0), float(t_end)} | inside))
    if (anchors, step) not in grids:
        grid, seg_h = [], []
        for seg_a, seg_b in zip(anchors, anchors[1:]):
            nsub = max(1, int(math.ceil((seg_b - seg_a) / step - 1e-12)))
            seg_h.append((seg_b - seg_a) / nsub)
            grid.append(seg_a + np.arange(nsub) * seg_h[-1])
        first = np.cumsum([0] + [g.size for g in grid[:-1]])
        grid = np.concatenate(grid + [[anchors[-1]]])
        grid.setflags(write=False)
        grids[anchors, step] = grid, first, np.array(seg_h)
    return (*grids[anchors, step], np.array([u.eval(a) for a in anchors[:-1]]))


def _lockstep_blocks(plans, m: int):
    """The :func:`_rk4` schedule in blocks of ``_BLOCK`` steps, refilled in buffers made once.

    Yields ``(times, hs, h2s, mids, h6s, inputs, live)``; ``times`` has the end of the last step
    too, and ``live`` is None while every row is still on its grid.
    """
    sizes = [plan[0].size - 1 for plan in plans]
    width = min(_BLOCK, max(sizes))
    times = np.empty((width + 1, len(plans), 1))
    hs, h2s, mids, h6s = (np.empty((width, len(plans), 1)) for _ in range(4))
    us, live = np.empty((width, len(plans), m)), np.empty((width, len(plans), 1), dtype=bool)
    for k0 in range(0, max(sizes), width):
        w = min(width, max(sizes) - k0)
        ks = np.arange(k0, k0 + w + 1)
        for i, (grid, first, seg_h, seg_u) in enumerate(plans):
            seg = np.searchsorted(first, ks[:w], side="right") - 1
            live[:w, i, 0] = ks[:w] < grid.size - 1
            times[:w + 1, i, 0] = grid[np.minimum(ks, grid.size - 1)]
            hs[:w, i, 0] = np.where(live[:w, i, 0], seg_h[seg], 0.0)
            us[:w, i] = seg_u[seg]
        np.multiply(0.5, hs[:w], out=h2s[:w])
        np.add(times[:w], h2s[:w], out=mids[:w])
        np.divide(hs[:w], 6.0, out=h6s[:w])
        yield (times[:w + 1], hs[:w], h2s[:w], mids[:w], h6s[:w], us[:w],
               None if k0 + w <= min(sizes) else live[:w])


def _rk4(rhs, x, n_steps: int, blocks, limit2: float):
    """RK4 on the ``(B, n)`` states ``x`` over ``n_steps`` steps fed by :func:`_lockstep_blocks`.

    Step ``j`` of a block takes each row from ``times[j]`` over ``hs[j]``
    with ``inputs[j]``; rows where ``live[j]`` is false are held.  A row
    stops at the first step ``k`` after which its squared norm is nonfinite
    (with a :class:`DynamicsError`) or not ``<= limit2`` (blown up), and is
    held at zero from then on.  Returns the ``(B, k+2, n)`` states through
    the last step ``k``, or the step where the last row stopped, each row's
    stopping step or None, and the errors by row.
    """
    rows = x.shape[0]
    states = np.empty((rows, n_steps + 1, x.shape[1]))
    states[:, 0] = x
    stops, errors, running = [None] * rows, {}, None  # running: (B, 1) mask once a row stopped
    k = 0
    for times, hs, h2s, mids, h6s, inputs, live in blocks:
        for j, (t, h, h2, mid, h6, u) in enumerate(zip(times, hs, h2s, mids, h6s, inputs)):
            k1 = rhs(t, x, u)
            k2 = rhs(mid, x + h2 * k1, u)
            k3 = rhs(mid, x + h2 * k2, u)
            k4 = rhs(t + h, x + h * k3, u)
            x_new = x + h6 * (k1 + 2.0 * (k2 + k3) + k4)
            moves = running if live is None else (live[j] if running is None else live[j] & running)
            x = x_new if moves is None else np.where(moves, x_new, x)
            states[:, k + 1] = x
            # the summed squared norm bounds every row's; the margin keeps
            # rounding from hiding a row past limit2
            if not float(np.vdot(x, x)) <= limit2 * (1.0 - 1e-9):
                for i in range(rows):  # a stopped row is zero and passes
                    nrm2 = float(np.vdot(x[i], x[i]))
                    if not nrm2 <= limit2:
                        if not math.isfinite(nrm2):
                            errors[i] = DynamicsError(
                                f"nonfinite state update at t={float(times[j + 1, i, 0])} "
                                f"(x={states[i, k]}, u={u[i]})")
                        stops[i], x[i] = k, 0.0
                if None not in stops:
                    return states[:, :k + 2], stops, errors
                running = np.array([[stop is None] for stop in stops])
            k += 1
    return states, stops, errors


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


def _simulate_members(sys: SystemDef, t0, xis, us: Sequence[Signal], t_end, step: float,
                      include_times=()) -> list:
    """:func:`simulate_batch`, with the :class:`DynamicsError` of a failing member in its entry."""
    t0s, t_ends = ([v] * len(us) if np.ndim(v) == 0 else list(v) for v in (t0, t_end))
    shared = len(include_times) == 0 or np.ndim(include_times[0]) == 0
    includes = [include_times] * len(us) if shared else list(include_times)
    if not len(xis) == len(t0s) == len(t_ends) == len(includes) == len(us):
        raise ParameterError(f"per-member arguments for {len(us)} inputs differ in length")
    xs = [np.array(xi, dtype=float).reshape(sys.n) for xi in xis]
    grids = {}
    plans = [_plan(sys, *run, step, inc, grids) for run, inc in zip(zip(t0s, us, t_ends), includes)]
    t_col = (np.asarray(t0s) + np.arange(len(xs)) * step)[:, None]
    u0 = [u.eval(a) for u, a in zip(us, t0s)]
    rhs = _as_rowwise(sys.rhs, t_col, xs, u0)
    states, stops, errors = _rk4(rhs, np.stack(xs), max(p[0].size for p in plans) - 1,
                                 _lockstep_blocks(plans, sys.m),
                                 BLOWUP_THRESHOLD * BLOWUP_THRESHOLD)
    trajs = []
    for i, ((grid, *_), k) in enumerate(zip(plans, stops)):
        if i in errors:
            trajs.append(errors[i])
        elif k is None:
            trajs.append(Trajectory(times=grid, states=states[i, :grid.size]))
        else:
            trajs.append(Trajectory(times=grid[:k + 2], states=states[i, :k + 2], blown_up=True,
                                    blowup_time=float(grid[k + 1])))
    return trajs


def simulate_batch(sys: SystemDef, t0, xis, us: Sequence[Signal], t_end, step: float,
                   include_times=()) -> list:
    """:func:`simulate` for the members ``(xis[i], us[i])``, one list entry each.

    ``t0``, ``t_end`` and ``include_times`` are shared or given per member.
    All members advance in lockstep by step index as one ``(B, n)`` state,
    each on its own anchor grid: it gets its own time, step length and input
    on every step and is held at its own ``t_end`` once its grid has ended,
    so it takes exactly the float steps of its lone :func:`simulate` run.
    Members with equal anchors share one read-only ``times`` array.
    The step schedule is built in fixed blocks; only the states grow with
    members times steps.  ``sys.rhs`` is called on the whole batch when it
    acts row-wise, in ``t`` too: one batched call at distinct per-row times
    is compared exactly with the per-row calls, and on any difference or
    exception it is called row by row inside the same step loop.  A member
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

    return SystemDef(rhs=rhs, n=1, m=1, lipschitz_hint=lambda R, _l=lam: _l + 1.0,
                     name=f"linear(lam={lam})")


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

    return SystemDef(rhs=rhs, n=1, m=1, lipschitz_hint=lambda R: 1.5,
                     name="perturbed_decay")


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
    uniqueness_tested: bool

    @property
    def valid(self) -> bool:
        return self.n_blowups == 0


def _random_ball(rng, dim: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        return np.zeros(dim)
    r = radius * rng.uniform() ** (1.0 / dim)
    return v / norm * r


def _random_disturbance(rng, dim: int, t_start: float, span: float, pieces: int) -> Signal:
    edges = t_start + span * np.arange(pieces) / pieces
    vals = [_random_ball(rng, dim, 1.0) for _ in range(pieces)]
    sig_pieces = [(0.0, np.zeros(dim))] + list(zip(edges, vals))
    return make_signal(sig_pieces, horizon=t_start + span, dim=dim)


def lipschitz_probe(sys: SystemDef, R: float, T: float, samples: int, seed: int,
                    step: float = 1e-3, pieces: int = 8,
                    query_points: int = 25) -> LipschitzReport:
    """Estimate solution Lipschitz constants of the disturbed system.

    The system is driven by piecewise-constant disturbances in the unit
    ball, fed in as its input.  Each probe draws an initial time in
    ``[0, T]``, two initial states in the radius-``R`` ball and a shift
    ``h`` in ``[0, 1]``, then measures the two sensitivity ratios along
    matched time grids.  All probes run as one batch; a probe with a blown-up
    or failed run counts once in ``n_blowups``.
    """
    if R <= 0 or T <= 0:
        raise ParameterError("R and T must be positive")
    if samples < 1:
        raise ParameterError("need at least one probe sample")

    rng = np.random.default_rng(seed)
    draws, members = [], []  # members: (t0, xi, d, include_times) of tr1, tr2 and shifted tr3
    for _ in range(samples):
        t0 = float(rng.uniform(0.0, T))
        xi1 = _random_ball(rng, sys.n, R)
        xi2 = _random_ball(rng, sys.n, R)
        h = float(rng.uniform(0.0, 1.0))
        d = _random_disturbance(rng, sys.m, t0, T + h + 1.0, pieces)
        query = t0 + np.linspace(0.0, T, query_points)
        draws.append((xi1, xi2, h, query))
        members += [(t0, xi1, d, query), (t0, xi2, d, query)]
        members += [(t0 + h, xi1, d, query + h)] * (h > 1e-9)
    t0s, xis, ds, includes = zip(*members)
    trajs = iter(_simulate_members(sys, t0s, xis, ds, [a + T for a in t0s], step, includes))
    state_max, shift_max, n_blow = 0.0, 0.0, 0
    for xi1, xi2, h, query in draws:
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
            a = np.vstack([tr1.state_at(q) for q in query])
            b = np.vstack([tr3[0].state_at(q + h) for q in query])
            h_ratio = float(np.max(np.linalg.norm(a - b, axis=1))) / h
        state_max = max(state_max, s_ratio)
        shift_max = max(shift_max, h_ratio)
    return LipschitzReport(
        state_ratio_max=state_max,
        shift_ratio_max=shift_max,
        n_blowups=n_blow,
        uniqueness_tested=sys.lipschitz_hint is not None,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write columns ``t, x_1..x_n`` with full float precision."""
    n = traj.states.shape[1]
    _write_csv(path, ["t"] + [f"x_{i + 1}" for i in range(n)], [traj.times, *traj.states.T])
