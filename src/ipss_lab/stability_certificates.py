"""Stability certificates, envelope checking, transformers, falsification.

A certificate packages one of the five state-bound shapes (decay-only,
bounded, sup-gain, energy-gain, power-gain).  Envelope checking evaluates
the certified bound along a simulated trajectory with the input measure
matching the certificate kind.  The transformers implement the exact
constants relating the exponential energy-gain and power-gain bounds, and
the falsifier searches structured input families for counterexamples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional

import numpy as np

from .comparison_functions import (
    KLBound,
    MonotoneFn,
    compose,
    klbound_from_spec,
    klbound_to_spec,
    make_power_fn,
    monotone_from_spec,
    monotone_to_spec,
    scale_fn,
)
from .errors import ParameterError
from .signals import (
    Signal,
    avg_power_norm,
    constant_signal,
    cumulative_energy,
    make_signal,
    pulse_train,
    rho_energy,
    sup_norm,
)
from .simulator import SystemDef, Trajectory, simulate_batch

__all__ = [
    "Certificate",
    "EnvelopeReport",
    "InputFamilySpec",
    "FalsificationReport",
    "OracleReport",
    "check_envelope",
    "ipss_to_iss_iiss",
    "exponential_window_bound",
    "exp_iiss_to_ipss",
    "lemma3_oracle",
    "falsify",
    "certificate_to_json",
    "certificate_from_json",
]

# the fields each kind carries; the others are None
_FIELDS = {
    "ISS": ("beta", "gamma"),
    "iISS": ("beta", "gamma", "rho"),
    "IPSS": ("beta", "gamma", "rho", "T"),
    "URGAS": ("beta",),
    "URLS": ("urls_epsilon",),
}


@dataclass(frozen=True)
class Certificate:
    """A stability bound of one of the five supported kinds.

    ``_FIELDS`` lists the fields each kind carries; the others are None.
    For ISS certificates ``gamma`` holds the sup-norm gain.
    """

    kind: str
    beta: Optional[KLBound] = None
    gamma: Optional[MonotoneFn] = None
    rho: Optional[MonotoneFn] = None
    T: Optional[float] = None
    urls_epsilon: Optional[MonotoneFn] = None

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise ParameterError(f"unknown certificate kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field after kind
            carried = f.name in _FIELDS[self.kind]
            if carried == (getattr(self, f.name) is None):
                verb = "requires" if carried else "must not carry"
                raise ParameterError(f"{self.kind} certificate {verb} field {f.name}")
        if self.T is not None and not (self.T > 0):
            raise ParameterError(f"IPSS window length must be positive, got {self.T}")
        for name, fn in (("gamma", self.gamma), ("rho", self.rho)):
            if fn is not None and fn.class_tag != "Kinf":
                raise ParameterError(
                    f"certificate gain {name} must be class Kinf, got {fn.class_tag}")


@dataclass(frozen=True)
class EnvelopeReport:
    """Minimal slack of a certified bound along one trajectory.

    ``bounds`` and ``margins`` hold the bound and ``bound - |x|`` at every
    trajectory grid time; both are ``None`` when the check stopped early
    (blow-up or a diverged input measure).
    """

    margin: float
    worst_time: float
    satisfied: bool
    tolerance: float
    measure: Optional[float] = None
    note: str = ""
    bounds: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    margins: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def check_envelope(traj: Trajectory, cert: Certificate, u: Optional[Signal], xi_norm: float,
                   t0: float, tolerance: Optional[float] = None) -> EnvelopeReport:
    """Evaluate the certified bound at every trajectory grid time.

    The input measure matching the certificate kind is taken of ``u`` over
    the whole simulated window ``[t0, t_end]``; URGAS and URLS take no
    input, and ``u`` may be None.  Returns the minimal ``bound - |x|``
    margin, where it occurs, and the per-sample bound and margin arrays.
    A blown-up trajectory fails outright.  When ``tolerance`` is omitted
    it defaults to ``1e-6 * (1 + bound)`` at the worst point, matching
    the combined integrator and quadrature error scales.
    """
    if traj.blown_up:
        return EnvelopeReport(
            margin=-math.inf,
            worst_time=float(traj.blowup_time),
            satisfied=False,
            tolerance=tolerance if tolerance is not None else 0.0,
            note="trajectory blow-up",
        )
    window = (t0, float(traj.times[-1]))
    measure = None
    if cert.kind == "ISS":
        measure = sup_norm(u, window)
    elif cert.kind == "iISS":
        measure = rho_energy(u, cert.rho, window)
    elif cert.kind == "IPSS":
        measure = avg_power_norm(u, cert.rho, cert.T, window)
    gamma_term = 0.0
    measure_val = None
    if measure is not None:
        measure_val = measure.value
        if measure.diverged:
            return EnvelopeReport(
                margin=-math.inf,
                worst_time=float(traj.times[0]),
                satisfied=False,
                tolerance=tolerance if tolerance is not None else 0.0,
                measure=measure.value,
                note="input measure diverged",
            )
        gamma_term = float(cert.gamma.eval(measure.value))

    norms = traj.norms()
    dt = traj.times - t0
    if cert.kind == "URLS":
        bounds = np.full_like(norms, float(cert.urls_epsilon.eval(xi_norm)))
    else:
        beta_vals = np.asarray(cert.beta.eval(xi_norm, dt), dtype=float)
        bounds = beta_vals + gamma_term
    margins = bounds - norms
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    tol = tolerance if tolerance is not None else 1e-6 * (1.0 + float(bounds[worst]))
    return EnvelopeReport(
        margin=margin,
        worst_time=float(traj.times[worst]),
        satisfied=margin >= -tol,
        tolerance=float(tol),
        measure=measure_val,
        bounds=bounds,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# transformers


def ipss_to_iss_iiss(cert: Certificate) -> tuple[Certificate, Certificate]:
    """Weaken a power-gain certificate into sup-gain and energy-gain ones.

    The power norm is dominated by ``rho`` of the sup norm and by the total
    energy divided by the window length, so the sup gain is ``gamma o rho``
    and the energy gain is ``s -> gamma(s / T)``; the decay term is shared.
    """
    if cert.kind != "IPSS":
        raise ParameterError(f"transformer needs an IPSS certificate, got {cert.kind}")
    eta = compose(cert.gamma, cert.rho)
    gamma_iiss = compose(cert.gamma, make_power_fn(1.0 / cert.T, 1.0))
    iss = Certificate(kind="ISS", beta=cert.beta, gamma=eta)
    iiss = Certificate(kind="iISS", beta=cert.beta, gamma=gamma_iiss, rho=cert.rho)
    return iss, iiss


def exponential_window_bound(K: float, lam: float, T: float) -> tuple[float, float]:
    """Exact constants of the exponential windowing bound.

    For finite ``K, lam > 0`` and finite ``T > log(max(1, K)) / lam``, returns
    ``lambda_tilde = lam - log(max(1, K)) / T`` and the gain amplification
    ``(1 + K*(1 - e^{-lam*T})) / (1 - K*e^{-lam*T})``.
    """
    for name, v in (("K", K), ("lam", lam), ("T", T)):
        if not math.isfinite(v):
            raise ParameterError(f"{name} must be finite, got {v}")
    if K <= 0 or lam <= 0:
        raise ParameterError("K and lam must be positive")
    threshold = math.log(max(1.0, K)) / lam
    if not (T > threshold):
        raise ParameterError(
            f"window length T={T} must exceed log(max(1,K))/lam = {threshold:.6g} "
            "for the geometric iteration to contract"
        )
    lambda_tilde = lam - math.log(max(1.0, K)) / T
    C = K * math.exp(-lam * T)
    amplification = (1.0 - C + K) / (1.0 - C)
    return lambda_tilde, amplification


def exp_iiss_to_ipss(K: float, lam: float, gamma_iiss: MonotoneFn, rho: MonotoneFn,
                     T: float) -> Certificate:
    """Upgrade an exponential energy-gain bound to a power-gain certificate.

    Requires ``K >= 1`` (forced by the bound at ``t = 0``).  The new decay
    uses the degraded rate ``lambda_tilde`` and the new gain is the
    amplified, argument-scaled energy gain ``s -> amp * gamma_iiss(T*s)``:
    the windowed energy supremum is at most ``T`` times the average power,
    and the gain is nondecreasing.  The new gain keeps the class tag of
    ``gamma_iiss``, so a bounded energy gain is refused, and its inverse
    and derivative when ``gamma_iiss`` has them.
    """
    if K < 1.0:
        raise ParameterError(f"exponential energy-gain bound forces K >= 1, got {K}")
    lambda_tilde, amplification = exponential_window_bound(K, lam, T)
    beta = KLBound(kind="exponential", K=float(K), lam=float(lambda_tilde))

    # a power gain collapses to (amp * c) * T**p * s**p
    gamma = compose(scale_fn(gamma_iiss, amplification), make_power_fn(T, 1.0))
    return Certificate(kind="IPSS", beta=beta, gamma=gamma, rho=rho, T=float(T))


# ---------------------------------------------------------------------------
# saturation oracle for the windowing bound


@dataclass(frozen=True)
class OracleReport:
    """Result of the worst-case-saturation check of the windowing bound."""

    min_slack: float
    worst_pair: tuple
    lambda_tilde: float
    amplification: float
    grid_step: float
    n_grid: int


_ORACLE_BLOCK = 32
_ORACLE_CHUNK = 1024


def _saturate(K, lam, ts, H, gain, g0):
    """Pointwise-largest grid sequence under the decay-plus-integral bound."""
    g = np.empty(ts.size)
    g[0] = g0
    # a lower end of the decay from candidate k to row i: one grid step more lag
    lag_decay = np.exp(-lam * (ts + ts[1]))
    upper = np.triu(np.ones((_ORACLE_BLOCK, _ORACLE_BLOCK), dtype=bool), 1)
    prev = np.zeros(1, dtype=int)
    for a in range(1, ts.size, _ORACLE_BLOCK):
        b = min(a + _ORACLE_BLOCK, ts.size)
        # bracket each earlier candidate k over the block's rows: the decay
        # term is smallest at row b - 1 and largest at row a, the gain term
        # lies between its values at the least and the largest H of the block.
        # The least upper end caps every row's minimum, so a candidate whose
        # lower end passes it is never the minimum (the relative guard
        # absorbs a one-ulp dip of eta or exp).  Upper ends are taken over the
        # last block's kept candidates and rows alone: their least is never
        # below the least over every k < a
        hi = K * g[prev] * np.exp(-lam * (ts[a] - ts[prev])) + gain(np.max(H[a:b]) - H[prev])
        cap = np.min(hi) * (1.0 + 1e-12)
        lo = K * g[:a] * lag_decay[b - a:b][::-1] + gain(np.min(H[a:b]) - H[:a])
        keep = np.flatnonzero(~(lo > cap))
        low = np.full(b - a, np.inf)
        for c0 in range(0, keep.size, _ORACLE_CHUNK):
            k = keep[c0:c0 + _ORACLE_CHUNK]
            cand = K * g[None, k] * np.exp(-lam * (ts[a:b, None] - ts[None, k])) \
                + gain(H[a:b, None] - H[None, k])
            low = np.minimum(low, np.min(cand, axis=1))
        # the block's own candidates join as each value settles; when none
        # undercuts a later row at the values so far, none does after either
        up = upper[:b - a, :b - a]
        decay = np.exp(-lam * (ts[None, a:b] - ts[a:b, None]))
        rise = gain(np.where(up, H[None, a:b] - H[a:b, None], 0.0))
        if np.any(up & ((K * low)[:, None] * decay + rise < low)):
            # the triangle is small, so plain floats beat per-row array calls
            decay, rise, low = decay.tolist(), rise.tolist(), low.tolist()
            for k in range(b - a - 1):
                Kg_k = K * low[k]
                d, r = decay[k], rise[k]
                for i in range(k + 1, b - a):
                    v = Kg_k * d[i] + r[i]
                    if v < low[i]:
                        low[i] = v
        g[a:b] = low
        prev = np.concatenate([keep, np.arange(a, b)])
    return g


def _fold_first_min(slack, js, row_min, row_j):
    """Fold columns ``js`` of a rows x columns slack block into each row's first minimum."""
    if js.size:
        j = np.argmin(slack, axis=1)
        v = slack[np.arange(slack.shape[0]), j]
        better = v < row_min
        row_min[better] = v[better]
        row_j[better] = js[j[better]]


def _window_check(K, lambda_tilde, amplification, T, ts, H, H_lo, g, gain):
    """Least slack of the windowed bound over grid pairs j >= i, and its first pair."""
    n1 = ts.size
    # from column jstar_i on the window [max(t_i, t_j - T), t_j] starts at
    # t_j - T, and W_j = H_j - H(t_j - T) there does not depend on the row
    W = H - H_lo
    jstar = np.searchsorted(ts - T, ts, side="right")
    # every row's running max past jstar is at least max(W_j, 0), and the
    # decay from row i to column j at least its value one grid step further
    gain_W0 = amplification * gain(np.maximum(W, 0.0))
    lag_decay = np.exp(-lambda_tilde * (ts + ts[1]))
    tail_floor = gain_W0 * (1.0 - 1e-12) - g
    min_slack = math.inf
    worst = (0.0, 0.0)

    def window(a, b, e):
        """Windows of rows a..b-1 at columns a..e-1, -inf left of each row's own."""
        cols = np.arange(a, e)
        win = np.where(cols[None, :] < jstar[a:b, None], H[None, a:e] - H[a:b, None], W[None, a:e])
        win[cols[None, :] < np.arange(a, b)[:, None]] = -np.inf
        return win

    for a in range(0, n1, _ORACLE_BLOCK):
        b = min(a + _ORACLE_BLOCK, n1)
        sb = int(jstar[b - 1])
        Kg = K * g[a:b]
        # a floor on every slack of a band column a <= j < sb over the
        # block's rows: the least decay (least K g_i, longest lag t_j - t_a)
        # plus the gain of a floor on every row's running max, less a
        # relative 1e-12 that absorbs one-ulp dips of exp and eta.  On the
        # block's own triangle that floor is 0 (row j's window at j); past it
        # each window is H_l - H_i >= H_l - max H[a:b], or W_l
        phi_floor = np.concatenate([np.zeros(b - a), np.maximum.accumulate(
            np.maximum(np.minimum(H[b:sb] - np.max(H[a:b]), W[b:sb]), 0.0))])
        floor = (np.min(Kg) * lag_decay[:sb - a] + amplification * gain(phi_floor)) \
            * (1.0 - 1e-12) - g[a:sb]
        # only a column whose floor reaches the least slack so far can hold
        # the first least pair, so the band's running max is built only up
        # to the last such column
        row_min = np.full(b - a, np.inf)
        row_j = np.zeros(b - a, dtype=int)
        c = np.flatnonzero(~(floor > min_slack))
        if c.size:
            phi = np.maximum.accumulate(window(a, b, a + c[-1] + 1), axis=1)
            js = a + c
            ok = np.isfinite(phi[:, c])
            slack = np.where(
                ok,
                Kg[:, None] * np.exp(-lambda_tilde * (ts[None, js] - ts[a:b, None]))
                + amplification * gain(np.where(ok, phi[:, c], 0.0)) - g[None, js],
                np.inf)
            _fold_first_min(slack, js, row_min, row_j)
        # tail, columns j >= sb: phi_i(j) = max(head_i, Wmax_j) with
        # Wmax_j = max W[sb:j+1], so its gain is one of two values, selected,
        # not compared.  A column is evaluated only when it passes three
        # floors in turn: the block-independent one, the one with the lower
        # decay and max(W_j, 0), and the band's form with Wmax_j
        least = min(min_slack, float(np.min(row_min)))
        js = sb + np.flatnonzero(~(tail_floor[sb:] > least))
        js = js[~((np.min(Kg) * lag_decay[js - a] + gain_W0[js]) * (1.0 - 1e-12) - g[js] > least)]
        if js.size:
            Wmax = np.maximum.accumulate(W[sb:js[-1] + 1])[js - sb]
            gain_W = amplification * gain(Wmax)
            keep = ~((np.min(Kg) * np.exp(-lambda_tilde * (ts[js] - ts[a])) + gain_W)
                     * (1.0 - 1e-12) - g[js] > least)
            js, Wmax, gain_W = js[keep], Wmax[keep], gain_W[keep]
        if js.size:
            head = np.max(window(a, b, sb), axis=1)
            gain_head = amplification * gain(head)
            for c0 in range(0, js.size, _ORACLE_CHUNK):
                c = slice(c0, c0 + _ORACLE_CHUNK)
                slack = Kg[:, None] * np.exp(-lambda_tilde * (ts[None, js[c]] - ts[a:b, None])) \
                    + np.where(Wmax[None, c] >= head[:, None], gain_W[None, c],
                               gain_head[:, None]) - g[None, js[c]]
                _fold_first_min(slack, js[c], row_min, row_j)
        r = int(np.argmin(row_min))
        if float(row_min[r]) < min_slack:
            min_slack = float(row_min[r])
            worst = (float(ts[a + r]), float(ts[row_j[r]]))
    return min_slack, worst


def lemma3_oracle(K: float, lam: float, T: float, eta: MonotoneFn,
                  h_profile: Signal, grid_step: float, t_max: float = 20.0,
                  g0: float = 1.0) -> OracleReport:
    """Saturate the decay-plus-integral inequality and check its window form.

    Builds the pointwise-largest grid sequence ``g`` consistent with
    ``g(t) <= K g(t0) e^{-lam (t - t0)} + eta(int_{t0}^t h)`` for all grid
    pairs (a forward minimization reaches the fixed point in one sweep,
    since every constraint looks backward), then verifies the windowed
    bound with the exact transformed constants at every grid pair and
    returns the minimal slack and the first pair, in row-major order,
    that attains it.

    Both passes run over blocks of rows, and the report is bit for bit the
    one of evaluating every grid pair:

    - forward pass: each block brackets every earlier candidate over its
      rows and drops those whose lower end exceeds the least upper end by
      a relative 1e-12 (the guard absorbs a one-ulp dip of ``eta`` or
      ``exp``).  Upper ends come from the last block's kept candidates and
      rows, lower ends from one decay table taken one grid step further.
      Only the kept candidates are evaluated, with the same per-element
      expressions; the block's own triangle runs only when an array test
      shows that an in-block candidate undercuts a later row;
    - check pass: from column ``jstar_i``, the first whose window start
      ``t_j - T`` passes ``t_i``, the window is ``W_j = H_j - H(t_j - T)``
      for every row.  A column is evaluated only when its floor (least
      decay plus the gain of a floor on every row's running max, less the
      same relative guard, minus ``g_j``) is not strictly above the least
      slack so far, so the first least pair is never skipped.  In the band
      of columns up to ``jstar`` of the block's last row, the rows' running
      maxima are built only up to the last such column.  Past the band the
      running max is ``max(head_i, Wmax_j)``, with ``Wmax_j`` the running
      max of ``W`` from the band's end; a column first passes a
      block-independent floor (the gain of ``W_j`` less ``g_j``) and a
      cheap one with ``W_j`` for ``Wmax_j``, and the gain is selected from
      ``eta(head_i)`` and ``eta(Wmax_j)``.

    Each floor bounds from below, and each upper end from above, the values
    it stands for, so no prune drops a candidate that could set a value of
    ``g`` or a column that could hold the first least pair.  Raises
    :class:`ParameterError` unless ``grid_step > 0``, ``t_max >= grid_step``
    and ``g0 >= 0`` are finite.

    Exact when the profile breakpoints and ``T`` lie on the grid.
    """
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ParameterError(f"grid_step must be finite and positive, got {grid_step}")
    if not (math.isfinite(t_max) and t_max >= grid_step):
        raise ParameterError(f"t_max must be finite and at least grid_step, got {t_max}")
    if not (math.isfinite(g0) and g0 >= 0):
        raise ParameterError(f"g0 must be finite and nonnegative, got {g0}")
    lambda_tilde, amplification = exponential_window_bound(K, lam, T)
    n = int(round(t_max / grid_step))
    ts = grid_step * np.arange(n + 1)
    knots, cum = cumulative_energy(h_profile, None)
    H = np.interp(ts, knots, cum)

    def gain(x):
        return np.asarray(eta.eval(x), dtype=float)

    g = _saturate(K, lam, ts, H, gain, g0)

    min_slack, worst = _window_check(K, lambda_tilde, amplification, T, ts, H,
                                     np.interp(ts - T, knots, cum), g, gain)
    return OracleReport(
        min_slack=min_slack,
        worst_pair=worst,
        lambda_tilde=lambda_tilde,
        amplification=amplification,
        grid_step=float(grid_step),
        n_grid=n + 1,
    )


# ---------------------------------------------------------------------------
# falsification


@dataclass(frozen=True)
class InputFamilySpec:
    """A structured family of (t0, xi, input) candidates for falsification.

    Families: ``constants`` (constant inputs at the given levels),
    ``pulse_trains`` (growing pulse trains), ``late_pulses`` (a single
    pulse of given amplitude starting at t0 with duration
    ``duration_scale / (1 + t0)``), ``bang_bang`` (alternating +/-
    amplitude).  A late pulse is integrated in exactly 20 steps, landing on
    anchors at ``t0 + duration * k / 20``; the rest of its run takes the
    step ``2 / (3 + t_end)`` that keeps RK4 stable against the ramp gain of
    :func:`~ipss_lab.simulator.counterexample_system`.
    """

    family: str
    t0_values: tuple = (0.0,)
    xi_values: tuple = (0.0,)
    levels: tuple = (1.0,)          # constants family amplitudes
    tau: float = 1.0                # pulse_trains spacing
    count: int = 5                  # pulse_trains count
    amplitude: float = 0.5          # late_pulses / bang_bang amplitude
    duration_scale: float = 1.0     # late_pulses duration numerator
    period: float = 1.0             # bang_bang half-period
    horizon: float = 10.0           # simulated span after t0
    settle: float = 3.0             # late_pulses extra span after the pulse

    def __post_init__(self):
        if self.family not in ("constants", "pulse_trains", "late_pulses", "bang_bang"):
            raise ParameterError(f"unknown input family {self.family!r}")


@dataclass(frozen=True)
class FalsificationReport:
    """Search outcome: the worst candidate and every violating one."""

    worst: Optional[dict]
    violations: tuple
    n_evaluated: int

    @property
    def falsified(self) -> bool:
        return len(self.violations) > 0

    def to_json(self) -> dict:
        return {
            "worst": dict(self.worst) if self.worst else None,
            "violations": [dict(v) for v in self.violations],
            "n_evaluated": self.n_evaluated,
        }


def _family_candidates(family: InputFamilySpec, step: float):
    """Yield (t0, xi, input signal, step, t_end, include times, description) for each t0, xi
    and input of the family, in that order; ``step`` is the step of every family but
    ``late_pulses``."""
    amp = family.amplitude
    for t0, xi in itertools.product(family.t0_values, family.xi_values):
        t_end = t0 + family.horizon
        if family.family == "constants":
            for c in family.levels:
                yield t0, xi, constant_signal([c], t_end), step, t_end, (), f"constant(c={c})"
        elif family.family == "pulse_trains":
            u = pulse_train(family.tau, family.count)
            yield t0, xi, u, step, max(t_end, u.horizon), (), (
                f"pulse_train(tau={family.tau}, count={family.count})")
        elif family.family == "late_pulses":
            duration = family.duration_scale / (1.0 + t0)
            t_end = t0 + duration + family.settle
            u = make_signal([(0.0, [0.0]), (t0, [amp]), (t0 + duration, [0.0])], horizon=t_end)
            # 20 anchored steps on the pulse; elsewhere one stable against the ramp gain 1 + t
            pulse = tuple(t0 + duration * k / 20.0 for k in range(1, 20))
            yield t0, xi, u, 2.0 / (3.0 + t_end), t_end, pulse, (
                f"late_pulse(t0={t0}, amp={amp}, dur={duration:.6g})")
        else:  # bang_bang
            ks = itertools.takewhile(lambda k: k * family.period < t_end, itertools.count())
            u = make_signal([(k * family.period, [amp * (-1) ** k]) for k in ks], horizon=t_end)
            yield t0, xi, u, step, t_end, (), f"bang_bang(amp={amp}, period={family.period})"


def falsify(sys: SystemDef, cert: Certificate, family: InputFamilySpec,
            budget: int, step: float = 1e-3,
            tolerance: Optional[float] = None) -> FalsificationReport:
    """Search the family for envelope violations, deterministically.

    The first ``budget`` candidates run as one :func:`simulate_batch`, so the
    trajectories of at most ``budget`` candidates are held at once, and
    each is checked against the certificate with :func:`check_envelope`
    at ``tolerance``.  Candidates that the check does not call satisfied
    are collected and the minimal-margin candidate reported.  Candidate
    order is deterministic and ties in margin go to the lower index, so
    the outcome is reproducible; the first failing candidate's
    :class:`~ipss_lab.errors.DynamicsError` is raised.
    """
    if budget < 1:
        raise ParameterError("budget must be at least 1")
    candidates = list(itertools.islice(_family_candidates(family, step), budget))
    if not candidates:
        return FalsificationReport(worst=None, violations=(), n_evaluated=0)
    t0s, xis, us, steps, t_ends, includes, descs = zip(*candidates)
    xis = [np.atleast_1d(np.asarray(xi, dtype=float)) for xi in xis]
    trajs = simulate_batch(sys, t0s, xis, us, t_ends, steps, includes)
    results = []
    for idx, (t0, xi_vec, u, desc, traj) in enumerate(zip(t0s, xis, us, descs, trajs)):
        report = check_envelope(traj, cert, u, float(np.linalg.norm(xi_vec)),
                                t0, tolerance)
        results.append({
            "index": idx,
            "t0": float(t0),
            "xi": [float(v) for v in xi_vec],
            "input_ref": desc,
            "margin": report.margin,
            "worst_time": report.worst_time,
            "peak_state_norm": float(np.max(traj.norms())),
            "satisfied": report.satisfied,
            "measure": report.measure,
        })

    return FalsificationReport(
        worst=min(results, key=lambda r: (r["margin"], r["index"])),
        violations=tuple(r for r in results if not r["satisfied"]),
        n_evaluated=len(results),
    )


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: Certificate, s_grid=None, t_grid=None,
                        gain_grid=None) -> dict:
    """JSON form with embedded function specs: the kind and the fields ``_FIELDS`` gives it.

    Gains without closed-form specs are sampled on ``gain_grid`` (and the
    decay bound on ``s_grid x t_grid``); reloading reproduces evaluations
    through the stored tables exactly.
    """
    fn_spec = partial(monotone_to_spec, sample_grid=gain_grid)
    to_spec = {"beta": partial(klbound_to_spec, s_grid=s_grid, t_grid=t_grid), "T": float}
    return {"kind": cert.kind, **{name: to_spec.get(name, fn_spec)(getattr(cert, name))
                                  for name in _FIELDS[cert.kind]}}


def certificate_from_json(d: dict) -> Certificate:
    """Reload :func:`certificate_to_json`'s form; other keys are ignored."""
    from_spec = {"beta": klbound_from_spec, "T": float}
    return Certificate(kind=d["kind"], **{
        f.name: from_spec.get(f.name, monotone_from_spec)(d[f.name])
        for f in fields(Certificate)[1:] if f.name in d})
