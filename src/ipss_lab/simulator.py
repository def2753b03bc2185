"""Deterministic ODE simulation with time-discontinuous dynamics.

The integrator is classic fixed-step fourth-order Runge-Kutta with one
twist: integration sub-steps never straddle an input breakpoint or a
declared discontinuity time of the dynamics.  For piecewise-constant
inputs and dynamics continuous off the declared set, the right-hand side
is smooth on every sub-interval, so the method keeps its full order.

Blow-up is modeled by a hard threshold on the state norm; exceeding it
stops integration and marks the trajectory.  One step loop serves a
single state and a batch of states, each on its own anchor grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DynamicsError, ParameterError
from .signals import Signal, make_signal

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
    "check_equilibrium",
    "trajectory_to_csv",
    "SYSTEM_REGISTRY",
]

BLOWUP_THRESHOLD = 1e9


@dataclass(frozen=True)
class SystemDef:
    """Time-varying dynamics ``xdot = rhs(t, x, u)``.

    ``rhs`` acts row-wise: given a ``(B, 1)`` column of times, states of
    shape ``(B, n)`` and inputs of shape ``(B, m)`` it returns the
    ``(B, n)`` stack of the per-row values, as :func:`simulate_batch`
    passes them (and checks once per call); a lone state gets a float time.
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
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    if t_end <= t0:
        raise ParameterError(f"t_end {t_end} must exceed t0 {t0}")
    if t0 < 0:
        raise ParameterError(f"t0 must be nonnegative, got {t0}")
    if u.dim != sys.m:
        raise ParameterError(f"input dim {u.dim} does not match system m {sys.m}")


def _schedule(sys: SystemDef, t0: float, u: Signal, t_end: float, step: float,
              include_times: Sequence[float]):
    """Grid times, step lengths and step inputs of one member's RK4 run.

    The anchors (input breakpoints and horizon, declared discontinuities,
    requested times) inside ``(t0, t_end)`` split the run into segments.
    """
    inside = [*u.breakpoints, u.horizon, *sys.discontinuity_times, *include_times]
    anchors = sorted({float(t0), float(t_end)} | {float(x) for x in inside if t0 < x < t_end})
    times, hs, inputs = [], [], []
    for seg_a, seg_b in zip(anchors, anchors[1:]):
        span = seg_b - seg_a
        nsub = max(1, int(math.ceil(span / step - 1e-12)))
        h = span / nsub
        times.append(seg_a + np.arange(nsub) * h)
        hs.append(np.full(nsub, h))
        inputs.append(np.broadcast_to(u.eval(seg_a), (nsub, sys.m)))
    times.append([anchors[-1]])
    return np.concatenate(times), np.concatenate(hs), np.concatenate(inputs)


def _rk4(rhs, x, times, hs, inputs, limit2: float, live=None):
    """RK4 step ``k`` from ``times[k]`` over ``hs[k]`` with input ``inputs[k]``.

    ``x`` is one state ``(n,)`` with float times and ``(m,)`` inputs, or a
    batch ``(B, n)`` with ``(B, 1)`` time and length columns, ``(B, m)``
    inputs and rows held where ``live[k]`` is false.  Stops after the first
    step whose squared norm (summed over a batch) is not ``<= limit2``; a
    single state that turns nonfinite raises :class:`DynamicsError`.
    Returns the ``(B, k+2, n)`` states so far and the stopping step or ``None``.
    """
    batched = x.ndim == 2
    full = len(hs) if live is None else int(np.count_nonzero(live.all(axis=(1, 2))))
    states = np.empty((x.shape[0] if batched else 1, len(hs) + 1, x.shape[-1]))
    states[:, 0] = x
    for k, (t, h, u) in enumerate(zip(times, hs, inputs)):
        h2 = 0.5 * h
        k1 = rhs(t, x, u)
        k2 = rhs(t + h2, x + h2 * k1, u)
        k3 = rhs(t + h2, x + h2 * k2, u)
        k4 = rhs(t + h, x + h * k3, u)
        x_new = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        x = x_new if k < full else np.where(live[k], x_new, x)
        nrm2 = float(np.vdot(x, x))  # x @ x on one state, the sum over a batch
        if not math.isfinite(nrm2) and not batched:
            raise DynamicsError(
                f"nonfinite state update at t={times[k + 1]} (x={states[0, k]}, u={u})"
            )
        states[:, k + 1] = x
        if not nrm2 <= limit2:
            return states[:, :k + 2], k
    return states, None


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


def _acts_rowwise(rhs, t0: float, step: float, xs: list, us: list) -> bool:
    """Whether one batched ``rhs`` call at per-row times ``t0 + i*step`` equals the per-row calls."""
    t_col = t0 + np.arange(len(xs))[:, None] * step
    u0 = [u.eval(t0) for u in us]
    try:
        rows = [rhs(float(t), x, v) for t, x, v in zip(t_col[:, 0], xs, u0)]
        batched = rhs(t_col, np.stack(xs), np.stack(u0))
        return np.array_equal(batched, rows)
    except Exception:  # the rhs rejects a 2-D state or a time column
        return False


def simulate_batch(sys: SystemDef, t0: float, xis, us: Sequence[Signal], t_end: float,
                   step: float, include_times: Sequence[float] = ()) -> list:
    """:func:`simulate` for the members ``(xis[i], us[i])``, one list entry each.

    All members advance in lockstep by step index as one ``(B, n)`` state,
    each on its own anchor grid: it gets its own time, step length and input
    on every step and is held once its grid has ended, so it takes exactly
    the float steps of its lone :func:`simulate` run.  That needs ``sys.rhs``
    to act row-wise, in ``t`` too; one batched call at distinct per-row
    times is compared exactly with the per-row calls, and on any difference
    or exception every member is integrated on its own.  A batch in which
    some state nears the blow-up threshold or turns nonfinite is rerun
    member by member, so blow-up flags and times are per member; the
    :class:`DynamicsError` of the first failing member (in input order) is
    raised after all members ran.
    """
    if len(xis) != len(us):
        raise ParameterError(f"{len(xis)} initial states for {len(us)} inputs")
    for u in us:
        _check_run(sys, t0, u, t_end, step)
    xs = [np.array(xi, dtype=float).reshape(sys.n) for xi in xis]
    plans = [_schedule(sys, t0, u, t_end, step, include_times) for u in us]
    thresh2 = BLOWUP_THRESHOLD * BLOWUP_THRESHOLD

    if len(us) > 1 and _acts_rowwise(sys.rhs, t0, step, xs, us):
        sizes = [h_i.size for _, h_i, _ in plans]
        times = np.full((max(sizes) + 1, len(us), 1), float(t_end))
        hs = np.zeros_like(times[1:])
        inputs = np.empty((len(hs), len(us), sys.m))
        live = np.arange(len(hs))[:, None, None] < np.asarray(sizes)[:, None]
        for i, (times_i, h_i, u_i) in enumerate(plans):
            times[:times_i.size, i, 0], hs[:h_i.size, i, 0] = times_i, h_i
            inputs[:h_i.size, i], inputs[h_i.size:, i] = u_i, u_i[-1]
        # the summed squared norm bounds every row's; the margin keeps
        # rounding from hiding a blow-up that simulate would report
        states, stop = _rk4(sys.rhs, np.stack(xs), times, hs, inputs,
                            thresh2 * (1.0 - 1e-9), live)
        if stop is None:
            return [Trajectory(times=times_i, states=states[i, :times_i.size])
                    for i, (times_i, _, _) in enumerate(plans)]

    trajs = []
    errors = {}
    for i, (times_i, h_i, u_i) in enumerate(plans):
        try:
            states, stop = _rk4(sys.rhs, xs[i], times_i.tolist(), h_i.tolist(), u_i, thresh2)
        except DynamicsError as exc:
            errors[i] = exc
            trajs.append(None)
            continue
        times_i = times_i[:states.shape[1]]
        trajs.append(Trajectory(times=times_i, states=states[0], blown_up=stop is not None,
                                blowup_time=None if stop is None else float(times_i[-1])))
    if errors:
        raise errors[min(errors)]
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


def check_equilibrium(sys: SystemDef, n_samples: int = 100, t_max: float = 100.0,
                      tol: float = 1e-12) -> bool:
    """Verify ``rhs(t, 0, 0) = 0`` on sampled times (the standing assumption)."""
    zeros_x = np.zeros(sys.n)
    zeros_u = np.zeros(sys.m)
    for t in np.linspace(0.0, t_max, n_samples):
        v = np.asarray(sys.rhs(float(t), zeros_x, zeros_u), dtype=float)
        if float(np.linalg.norm(v)) > tol:
            return False
    return True


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
    matched time grids.
    """
    if R <= 0 or T <= 0:
        raise ParameterError("R and T must be positive")
    if samples < 1:
        raise ParameterError("need at least one probe sample")

    rng = np.random.default_rng(seed)
    state_max = 0.0
    shift_max = 0.0
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
            s_ratio = 0.0
            sep0 = float(np.linalg.norm(xi1 - xi2))
            if sep0 > 0:
                diffs = np.linalg.norm(tr1.states - tr2.states, axis=1)
                s_ratio = float(np.max(diffs)) / sep0
            h_ratio = 0.0
            if h > 1e-9:
                tr3 = simulate(sys, t0 + h, xi1, d, t0 + h + T, step,
                               include_times=query + h)
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
    return LipschitzReport(
        state_ratio_max=state_max,
        shift_ratio_max=shift_max,
        n_blowups=n_blow,
        uniqueness_tested=sys.lipschitz_hint is not None,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write columns ``t, x_1..x_n`` with full float precision."""
    n = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(n)])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
