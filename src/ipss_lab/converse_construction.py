"""Sampled converse Lyapunov construction for disturbance-driven systems.

Given a system ``xdot = g(t, x, d)`` with disturbances in the closed unit
ball that is uniformly robustly asymptotically stable, the construction
builds

    W_k(t0, xi) = sup_d sup_{s >= t0} e^{(s - t0)/2} G_k(rho(|x(s)|)),
    V(t0, xi)   = sum_k 2^{-k} / (1 + M_{k,k}) W_k(t0, xi),

with ``G_k(r) = max(r - 1/k, 0)``, ``rho`` a unit-Lipschitz regularization
of the inverse Sontag factor, and ``M_{R,k}`` Lipschitz bounds of ``W_k``
obtained from solution-sensitivity probes.  Every layer is a supremum
along the same disturbed trajectories from ``(t0, xi)``, so one simulated
batch per probe state serves all layers.  The supremum over disturbances
is approximated from below by a seeded batch of piecewise-constant
disturbances plus the constant extreme points, so every acceptance check
carries explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .comparison_functions import (KLBound, MonotoneFn, _bilinear, apply_inverse,
                                   make_table_fn, monotone_from_spec, monotone_to_spec)
from .errors import ModelError, ParameterError
from .lyapunov_tools import LyapunovCandidate
from .signals import constant_signal
from .simulator import SystemDef, _random_disturbance, lipschitz_probe, simulate_batch

__all__ = [
    "DisturbedSystem",
    "ConverseConfig",
    "ConverseProbePlan",
    "ConverseReport",
    "ConverseEvaluator",
    "regularized_rho",
    "wk_estimate",
    "check_converse_properties",
    "iss_to_dissipation_candidate",
    "build_mrk_table",
    "horizon_for",
    "candidate_table_to_json",
    "candidate_table_from_json",
]


@dataclass(frozen=True)
class DisturbedSystem:
    """Dynamics ``xdot = rhs_d(t, x, d)`` driven by unit-ball disturbances.

    ``urgas_beta`` is the declared uniform decay envelope; probe
    trajectories are checked against it and a violation is a model error.
    ``rhs_d`` acts row-wise on ``(B, n)`` states with ``(B, m)``
    disturbances, as ``SystemDef.rhs`` does.
    """

    rhs_d: Callable
    n: int
    m: int
    urgas_beta: KLBound

    def as_systemdef(self) -> SystemDef:
        return SystemDef(rhs=self.rhs_d, n=self.n, m=self.m, name="disturbed")


@dataclass(frozen=True)
class ConverseConfig:
    """Sampling resolution of the construction."""

    k_max: int = 5
    disturbance_samples: int = 16
    pieces_per_horizon: int = 8
    sim_step: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        if self.k_max < 1:
            raise ParameterError("k_max must be >= 1")
        if self.disturbance_samples < 1:
            raise ParameterError("disturbance_samples must be >= 1")
        if self.pieces_per_horizon < 1:
            raise ParameterError("pieces_per_horizon must be >= 1")
        if self.sim_step <= 0:
            raise ParameterError("sim_step must be positive")


def regularized_rho(theta2: MonotoneFn, grid: Sequence[float]) -> MonotoneFn:
    """Unit-Lipschitz minorant ``rho(s) = inf_r { theta2^{-1}(r) + |r - s| }``.

    Values ``r > s`` only increase the objective, so ``rho(s) = s + min_{r <= s}
    psi(r)`` with ``psi = theta2^{-1} - id``, which must be unimodal on each
    grid cell: a golden-section search on all cells at once and a running
    minimum give every node of the returned monotone table.  Satisfies
    ``rho <= theta2^{-1}`` and has unit Lipschitz constant on the grid.
    """
    if theta2.class_tag != "Kinf":
        raise ParameterError(f"theta2 must be class Kinf, got {theta2.class_tag}")
    xs = np.asarray(sorted(set(float(g) for g in grid)))
    if xs[0] != 0.0:
        xs = np.concatenate([[0.0], xs])

    def psi(r):
        return np.asarray(apply_inverse(theta2, r), dtype=float) - r

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = xs[:-1], xs[1:]
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = psi(c), psi(d)
    while np.any(b - a > 1e-10):
        left = fc < fd  # the cell's minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - phi * (b - a), a + phi * (b - a))
        f_new = psi(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    cell_min = np.concatenate([[np.inf], np.minimum(fc, fd)])
    ys = xs + np.minimum.accumulate(np.minimum(psi(xs), cell_min))
    ys = np.maximum.accumulate(ys)  # true rho is nondecreasing
    ys[0] = 0.0
    return make_table_fn(xs, ys, class_tag="Kinf")


# ---------------------------------------------------------------------------
# disturbance batches


def _extreme_disturbances(m: int) -> list:
    vecs = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        vecs.append(e.copy())
        vecs.append(-e)
    corner = np.full(m, 1.0 / math.sqrt(m))
    for c in (corner, -corner):
        if not any(np.array_equal(c, v) for v in vecs):
            vecs.append(c)
    return vecs


def disturbance_batch(m: int, count: int, t0: float, span: float, pieces: int,
                      seed: int) -> list:
    """Seeded unit-ball disturbance batch of exactly ``count`` signals.

    The constant extreme points come first, then random piecewise-constant
    signals drawn sequentially from one stream, so batches with larger
    ``count`` and the same seed are supersets.
    """
    span = max(span, 1e-9)
    batch = [constant_signal(v, t0 + span) for v in _extreme_disturbances(m)]
    batch = batch[:count]
    rng = np.random.default_rng(seed)
    while len(batch) < count:
        batch.append(_random_disturbance(rng, m, t0, span, pieces))
    return batch


def horizon_for(k: int, theta1: MonotoneFn, R: float) -> float:
    """Layer horizon ``ln(1 + k * theta1(R))``: past it the layer term is 0."""
    return math.log(1.0 + k * float(theta1.eval(R)))


def _check_urgas(traj, beta: KLBound, xi_norm: float, t0: float, slack: float = 1e-3):
    norms = traj.norms()
    bounds = np.asarray(beta.eval(xi_norm, traj.times - t0), dtype=float)
    worst = float(np.max(norms - bounds))
    if worst > slack:
        t_bad = float(traj.times[int(np.argmax(norms - bounds))])
        raise ModelError(
            f"probe trajectory violates the declared decay envelope by {worst:.3e} "
            f"at t={t_bad:.4g} (|xi|={xi_norm:.4g})"
        )


def _layer_gains(rho: MonotoneFn, r, k_max: int) -> np.ndarray:
    """``G_k(rho(r)) = max(rho(r) - 1/k, 0)`` for ``k = 1..k_max``, stacked on axis 0."""
    rho_r = np.asarray(rho.eval(r), dtype=float)
    inv_k = 1.0 / np.arange(1, k_max + 1).reshape((-1,) + (1,) * rho_r.ndim)
    return np.maximum(rho_r - inv_k, 0.0)


def wk_estimate(sys: DisturbedSystem, t0: float, xi, theta1: MonotoneFn,
                rho: MonotoneFn, cfg: ConverseConfig) -> np.ndarray:
    """Lower estimates of all ``cfg.k_max`` layer suprema at ``(t0, xi)``.

    One seeded disturbance batch is simulated over the longest layer
    horizon and every layer is read off the same trajectories.  Past its
    own horizon a layer term is 0 on a trajectory within the decay
    envelope, so the longer window only adds zeros; each ``W_k`` is a
    supremum over all ``s >= t0`` in any case.  The disturbance supremum is
    approximated by the batch and the time supremum by the simulation grid,
    so each estimate increases toward the true value as sampling is refined.
    """
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
        _check_urgas(traj, sys.urgas_beta, R, t0)
        gains = np.exp(0.5 * (traj.times - t0)) * _layer_gains(rho, traj.norms(), cfg.k_max)
        best = np.maximum(best, np.max(gains, axis=1))
    return best


class ConverseEvaluator:
    """Caching evaluator of the truncated layer series.

    The one assembly of the construction: the property checks, the
    candidate and its table export all query it.  All layer values of a
    probe state come from one :func:`wk_estimate` call and are cached by
    ``(t0, state)``, so no state is simulated twice in a run.
    """

    def __init__(self, sys: DisturbedSystem, theta1: MonotoneFn, rho: MonotoneFn,
                 cfg: ConverseConfig, mrk_table: Callable):
        self.sys = sys
        self.theta1 = theta1
        self.rho = rho
        self.cfg = cfg
        self.mrk_table = mrk_table
        self._cache = {}
        diag = [float(mrk_table(k, k)) for k in range(1, cfg.k_max + 1)]
        if any(b < a - 1e-12 for a, b in zip(diag, diag[1:])):
            raise ParameterError("mrk_table must be nondecreasing along the diagonal")
        self.weights = [2.0 ** (-k) / (1.0 + diag[k - 1]) for k in range(1, cfg.k_max + 1)]

    def wk(self, t0: float, xi) -> np.ndarray:
        key = (float(t0), tuple(float(v) for v in np.atleast_1d(xi)))
        if key not in self._cache:
            self._cache[key] = wk_estimate(self.sys, t0, xi, self.theta1, self.rho, self.cfg)
        return self._cache[key]

    def value(self, t0: float, xi) -> float:
        return float(sum(w * v for w, v in zip(self.weights, self.wk(t0, xi))))

    def tail_bound(self, xi) -> float:
        R = float(np.linalg.norm(np.atleast_1d(xi)))
        return 2.0 ** (-self.cfg.k_max) * float(self.theta1.eval(R))

    def alpha1_value(self, r):
        """Truncated lower sandwich: the series of layer gains at time 0.

        Accepts a scalar or an array of radii.
        """
        out = sum(w * g for w, g in zip(self.weights, _layer_gains(self.rho, r, self.cfg.k_max)))
        return float(out) if np.ndim(r) == 0 else out

    def alpha1_table(self, rho_grid: Sequence[float]) -> MonotoneFn:
        """:meth:`alpha1_value` as a monotone table over ``rho_grid``.

        The series is piecewise linear with kinks at the rho-table nodes and
        the layer activation radii, so a table with nodes exactly there is
        exact up to rounding.
        """
        kinks = {float(apply_inverse(self.rho, 1.0 / k)) for k in range(1, self.cfg.k_max + 1)}
        r_grid = sorted(set(float(r) for r in rho_grid) | kinks)
        a1_vals = np.maximum.accumulate(self.alpha1_value(np.asarray(r_grid)))
        return make_table_fn(r_grid, a1_vals, class_tag="Kinf")

    def candidate(self, rho_grid: Sequence[float], name: str) -> LyapunovCandidate:
        """The series as a candidate, sandwiched by :meth:`alpha1_table` and ``theta1``."""
        return LyapunovCandidate(
            eval=lambda t, x: self.value(float(t), np.atleast_1d(x)),
            alpha1=self.alpha1_table(rho_grid),
            alpha2=self.theta1,
            name=name,
        )


def build_mrk_table(sys: DisturbedSystem, theta1: MonotoneFn, cfg: ConverseConfig,
                    probe_samples: int = 10, probe_step: float = 2e-3) -> Callable:
    """Empirical Lipschitz-weight table ``(R, k) -> M_{R,k}``.

    Probes the solution sensitivity at radius ``k`` over each layer horizon,
    monotonizes by running maxima, and assembles
    ``M_{R,k} = e^{T_{R,k}/2} * Lbar(ceil(max(R,1)))``, nondecreasing in
    both arguments.
    """
    sysdef = sys.as_systemdef()
    lbar = []
    for k in range(1, cfg.k_max + 1):
        T = max(horizon_for(k, theta1, float(k)), 0.1)
        rep = lipschitz_probe(sysdef, R=float(k), T=T,
                              samples=probe_samples, seed=cfg.seed + 1000 + k,
                              step=probe_step)
        val = max(rep.state_ratio_max, rep.shift_ratio_max, 1e-6)
        lbar.append(val if not lbar else max(val, lbar[-1]))

    def mrk(R: float, k: int, _lbar=tuple(lbar), _t1=theta1) -> float:
        idx = min(max(int(math.ceil(max(R, 1.0))), 1), len(_lbar)) - 1
        T_Rk = horizon_for(int(k), _t1, float(R))
        return math.exp(0.5 * T_Rk) * _lbar[idx]

    return mrk


# ---------------------------------------------------------------------------
# property checks


@dataclass(frozen=True)
class ConverseProbePlan:
    """Probe set for the three converse-construction properties."""

    states: tuple = (0.5, 1.0, 3.0)
    t0_values: tuple = (0.0,)
    decay_horizon: float = 4.0
    decay_eval_points: int = 4
    constant_disturbances: tuple = (-1.0, 0.0, 1.0)
    lipschitz_pairs: int = 6
    lipschitz_radius: float = 3.0
    slack: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class ConverseReport:
    """Per-item outcomes of the sandwich / Lipschitz / decay checks."""

    sandwich_ok: bool
    lipschitz_ok: bool
    decay_ok: bool
    sandwich_rows: tuple
    lipschitz_rows: tuple
    decay_rows: tuple

    @property
    def all_ok(self) -> bool:
        return self.sandwich_ok and self.lipschitz_ok and self.decay_ok

    def to_json(self) -> dict:
        return {
            "sandwich": {"ok": self.sandwich_ok, "rows": [dict(r) for r in self.sandwich_rows]},
            "lipschitz": {"ok": self.lipschitz_ok, "rows": [dict(r) for r in self.lipschitz_rows]},
            "decay": {"ok": self.decay_ok, "rows": [dict(r) for r in self.decay_rows]},
        }


def check_converse_properties(ev: ConverseEvaluator,
                              plan: ConverseProbePlan) -> ConverseReport:
    """Probe the sandwich, Lipschitz and decay properties of the series in ``ev``.

    The decay check follows constant-disturbance trajectories and accepts
    ``V(t, x(t)) <= e^{-(t-t0)/2} V(t0, xi) (1 + slack)``; the slack covers
    the one-sided sampling of both sides.
    """
    sys, theta1, cfg, mrk_table = ev.sys, ev.theta1, ev.cfg, ev.mrk_table
    slack = plan.slack

    sandwich_rows = []
    sandwich_ok = True
    for t0 in plan.t0_values:
        for s in plan.states:
            xi = np.zeros(sys.n)
            xi[0] = s
            v = ev.value(t0, xi)
            lo = ev.alpha1_value(abs(s))
            hi = float(theta1.eval(abs(s)))
            ok = (v >= lo * (1.0 - slack) - 1e-12) and (v <= hi * (1.0 + slack) + 1e-12)
            sandwich_ok &= ok
            sandwich_rows.append({
                "t0": float(t0), "state": float(s),
                "lower": lo, "value": v, "upper": hi, "ok": ok,
            })

    lip_rows = []
    lip_ok = True
    rng = np.random.default_rng(plan.seed)
    theoretical = 1.0 + sum(
        2.0 ** (-k) * float(mrk_table(plan.lipschitz_radius, k))
        / (1.0 + float(mrk_table(k, k)))
        for k in range(1, cfg.k_max + 1)
    )
    for _ in range(plan.lipschitz_pairs):
        t_a, t_b = rng.uniform(0.0, 2.0, size=2)
        xa = rng.uniform(-plan.lipschitz_radius, plan.lipschitz_radius, size=sys.n)
        xb = rng.uniform(-plan.lipschitz_radius, plan.lipschitz_radius, size=sys.n)
        den = abs(t_a - t_b) + float(np.linalg.norm(xa - xb))
        if den < 1e-9:
            continue
        ratio = abs(ev.value(t_a, xa) - ev.value(t_b, xb)) / den
        ok = ratio <= theoretical * (1.0 + slack)
        lip_ok &= ok
        lip_rows.append({"ratio": float(ratio), "bound": float(theoretical), "ok": ok})

    decay_rows = []
    decay_ok = True
    sysdef = sys.as_systemdef()
    for t0 in plan.t0_values:
        t_end = t0 + plan.decay_horizon
        runs = []
        for s in plan.states:
            xi = np.zeros(sys.n)
            xi[0] = s
            v0 = ev.value(t0, xi)
            if v0 > 1e-12:
                runs.extend((s, xi, v0, dc) for dc in plan.constant_disturbances)
        trajs = simulate_batch(sysdef, t0, [r[1] for r in runs],
                               [constant_signal(np.full(sys.m, r[3]), t_end) for r in runs],
                               t_end, cfg.sim_step)
        eval_ts = np.linspace(t0, t_end, plan.decay_eval_points + 1)[1:]
        for (s, _, v0, dc), traj in zip(runs, trajs):
            for te in eval_ts:
                idx = int(np.searchsorted(traj.times, te))
                idx = min(idx, traj.times.size - 1)
                xt = traj.states[idx]
                tt = float(traj.times[idx])
                vt = ev.value(tt, xt)
                bound = math.exp(-0.5 * (tt - t0)) * v0 * (1.0 + slack)
                ok = vt <= bound + 1e-12
                decay_ok &= ok
                decay_rows.append({
                    "t0": float(t0), "state": float(s), "d": float(dc),
                    "t": tt, "value": vt, "bound": bound, "ok": ok,
                })

    return ConverseReport(
        sandwich_ok=sandwich_ok,
        lipschitz_ok=lip_ok,
        decay_ok=decay_ok,
        sandwich_rows=tuple(sandwich_rows),
        lipschitz_rows=tuple(lip_rows),
        decay_rows=tuple(decay_rows),
    )


# ---------------------------------------------------------------------------
# pipeline entry


def iss_to_dissipation_candidate(sys: SystemDef, phi: MonotoneFn, theta1: MonotoneFn,
                                 theta2: MonotoneFn, cfg: ConverseConfig,
                                 rho_grid: Optional[Sequence[float]] = None) -> LyapunovCandidate:
    """Candidate from the closed-loop converse construction.

    Feeds the original input through ``u = d * phi(|x|)`` so disturbances
    range over the unit ball, assumes the factored decay envelope
    ``theta2(theta1(s) e^{-t})`` for the closed loop (a model obligation
    probed at every layer evaluation), and returns the truncated series as
    a candidate with its construction sandwich bounds.
    """
    if phi.class_tag != "Kinf":
        raise ParameterError(f"phi must be class Kinf, got {phi.class_tag}")

    def g_rhs(t, x, d, _f=sys.rhs, _phi=phi):
        # one gain per state row, so batched integration stays row-wise
        return _f(t, x, d * _phi.eval(np.linalg.norm(x, axis=-1, keepdims=True)))

    def beta_eval(s, t, _t1=theta1, _t2=theta2):
        return _t2.eval(_t1.eval(s) * np.exp(-np.asarray(t, dtype=float)))

    dsys = DisturbedSystem(rhs_d=g_rhs, n=sys.n, m=sys.m,
                           urgas_beta=KLBound(kind="general", eval2=beta_eval))
    if rho_grid is None:
        rho_grid = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 240)])
    ev = ConverseEvaluator(dsys, theta1, regularized_rho(theta2, rho_grid), cfg,
                           build_mrk_table(dsys, theta1, cfg))
    cand = ev.candidate(rho_grid, "converse_series")

    def candidate_eval(t, x, _eval=cand.eval):
        try:
            return _eval(t, x)
        except ModelError as exc:
            raise ModelError(
                f"closed-loop decay envelope failed; the supplied gain phi is "
                f"inadequate for this system ({exc})"
            ) from exc

    return replace(cand, eval=candidate_eval)


# ---------------------------------------------------------------------------
# table export of a sampled candidate


def candidate_table_to_json(candidate: LyapunovCandidate, t_grid: Sequence[float],
                            x_grid: Sequence[float]) -> dict:
    """Sample a scalar candidate on a (t, x) grid for reuse elsewhere.

    Only scalar state grids are supported; the export carries the sandwich
    bounds as table specs over the same state grid.
    """
    t_grid = [float(t) for t in t_grid]
    x_grid = [float(x) for x in x_grid]
    values = [[float(candidate.eval(t, np.array([x]))) for x in x_grid] for t in t_grid]
    abs_grid = sorted(set(abs(x) for x in x_grid) | {0.0})
    return {
        "t_grid": t_grid,
        "x_grid": x_grid,
        "values": values,
        "alpha1": monotone_to_spec(candidate.alpha1, sample_grid=abs_grid),
        "alpha2": monotone_to_spec(candidate.alpha2, sample_grid=abs_grid),
        "name": candidate.name,
    }


def candidate_table_from_json(d: dict) -> LyapunovCandidate:
    """Rebuild a table candidate; evaluation is bilinear on the stored grid, clamped."""
    t_grid = np.asarray(d["t_grid"], dtype=float)
    x_grid = np.asarray(d["x_grid"], dtype=float)
    values = np.asarray(d["values"], dtype=float)

    def _eval(t, x, _t=t_grid, _x=x_grid, _v=values):
        return float(_bilinear(_t, _x, _v, t, float(np.atleast_1d(x)[0])))

    return LyapunovCandidate(
        eval=_eval,
        alpha1=monotone_from_spec(d["alpha1"]),
        alpha2=monotone_from_spec(d["alpha2"]),
        name=d.get("name", "table"),
    )
