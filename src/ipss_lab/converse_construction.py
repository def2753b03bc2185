"""Sampled converse Lyapunov construction for disturbance-driven systems.

Given a system ``xdot = g(t, x, d)`` with disturbances in the closed unit
ball that is uniformly robustly asymptotically stable, the construction
builds

    W_k(t0, xi) = sup_d sup_{s >= t0} e^{(s - t0)/2} G_k(rho(|x(s)|)),
    V(t0, xi)   = sum_k 2^{-k} / (1 + M_{k,k}) W_k(t0, xi),

with ``G_k(r) = max(r - 1/k, 0)``, ``rho`` a unit-Lipschitz regularization
of the inverse Sontag factor, and ``M_{R,k}`` Lipschitz bounds of ``W_k``
obtained from solution-sensitivity probes.  Every layer is a supremum
along the same disturbed trajectories from ``(t0, xi)``, so one disturbance
batch per probe state serves all layers, and the batches of many probe
states are simulated together in lockstep.  The supremum over disturbances
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
from .errors import DynamicsError, ModelError, ParameterError, RangeError
from .lyapunov_tools import LyapunovCandidate
from .signals import _prechecked_signal, constant_signal
from .simulator import (SystemDef, Trajectory, _as_rowwise, _disturbance, _random_ball,
                        _simulate_members, lipschitz_probes, simulate_batch)
from .stability_certificates import Certificate, check_envelope

__all__ = [
    "DisturbedSystem",
    "ConverseConfig",
    "ConverseProbePlan",
    "ConverseReport",
    "ConverseEvaluator",
    "regularized_rho",
    "disturbance_draws",
    "disturbance_batch",
    "wk_estimates",
    "check_converse_properties",
    "iss_to_dissipation_candidate",
    "build_mrk_table",
    "horizon_for",
    "candidate_table_to_json",
    "candidate_table_from_json",
]

_WK_ROWS = 128  # rows of one lockstep batch of probe runs
_PROBE_SAMPLES = 10  # Lipschitz probes per layer of the weight table
_PROBE_STEP = 2e-3  # RK4 step of those probes


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
    pieces_per_horizon: int = 6
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
    """``+-e_i`` of every axis, then the corners ``+-(1, ..., 1)/sqrt(m)``, which for
    ``m = 1`` are ``+-e_0`` already."""
    vecs = [sign * e for e in np.eye(m) for sign in (1.0, -1.0)]
    if m > 1:
        corner = np.full(m, 1.0 / math.sqrt(m))
        vecs += [corner, -corner]
    return vecs


def disturbance_draws(m: int, count: int, pieces: int, seed: int) -> np.ndarray:
    """The ``(runs, pieces, m)`` piece values of the random signals of a
    :func:`disturbance_batch`.

    They do not depend on the batch's start or span, so one draw serves
    the batches of every probe state.
    """
    rng = np.random.default_rng(seed)
    n_random = count - min(count, len(_extreme_disturbances(m)))
    return np.reshape([[_random_ball(rng, m, 1.0) for _ in range(pieces)]
                       for _ in range(n_random)], (n_random, pieces, m))


def disturbance_batch(m: int, count: int, t0: float, span: float, pieces: int,
                      seed: int, draws: Optional[np.ndarray] = None) -> list:
    """Seeded unit-ball disturbance batch of exactly ``count`` signals.

    The constant extreme points come first, then random piecewise-constant
    signals drawn sequentially from one stream, so batches with larger
    ``count`` and the same seed are supersets.  ``draws`` are their piece
    values as :func:`disturbance_draws` returns them for the same ``m``,
    ``count``, ``pieces`` and ``seed``; they are drawn here when None.

    The random signals share one read-only breakpoint array and hold read-only
    rows of one value array, checked once for the batch; one whose pieces
    :func:`~ipss_lab.signals.make_signal` would merge or drop is built by it.
    """
    span = max(span, 1e-9)
    horizon = float(t0 + span)
    batch = [constant_signal(v, horizon) for v in _extreme_disturbances(m)][:count]
    if draws is None:
        draws = disturbance_draws(m, count, pieces, seed)
    draws = np.asarray(draws, dtype=float)
    runs, p, dim = draws.shape
    edges = t0 + span * np.arange(p) / p
    lead = int(t0 != 0.0)  # a zero piece before the first edge, which t0 = 0 replaces
    bps = np.append(np.zeros(lead), edges)
    vals = np.concatenate((np.zeros((runs, lead, dim)), draws), axis=1)
    # rows make_signal keeps as given: finite, each value a change, starts increasing
    as_given = (np.isfinite(vals).all(axis=(1, 2))
                & (vals[:, 1:] != vals[:, :-1]).any(axis=2).all(axis=1)
                & bool((bps[1:] > bps[:-1]).all() and bps[-1] < horizon))
    for a in (bps, vals):
        a.setflags(write=False)
    return batch + [_prechecked_signal(bps, v, horizon, dim) if ok else _disturbance(d, t0, span)
                    for v, d, ok in zip(vals, draws, as_given)]


def horizon_for(k: int, theta1: MonotoneFn, R: float) -> float:
    """Layer horizon ``ln(1 + k * theta1(R))``: past it the layer term is 0."""
    return math.log(1.0 + k * float(theta1.eval(R)))


def _layer_gains(rho: MonotoneFn, r, k_max: int) -> np.ndarray:
    """``G_k(rho(r)) = max(rho(r) - 1/k, 0)`` for ``k = 1..k_max``, stacked on axis 0."""
    rho_r = np.asarray(rho.eval(r), dtype=float)
    inv_k = 1.0 / np.arange(1, k_max + 1).reshape((-1,) + (1,) * rho_r.ndim)
    return np.maximum(rho_r - inv_k, 0.0)


def _layer_sups(traj, t0: float, R: float, urgas: Certificate, rho: MonotoneFn,
                k_max: int) -> np.ndarray:
    """All ``k_max`` layer suprema along one probe trajectory, or the stacked samples of
    the runs of one probe state, that passes the model checks: no blow-up, and the decay
    envelope ``urgas`` held within 1e-3."""
    if traj.blown_up:
        raise ModelError(f"probe trajectory blew up at t={traj.blowup_time}")
    rep = check_envelope(traj, urgas, None, R, t0, tolerance=1e-3)
    if not rep.satisfied:
        raise ModelError(
            f"probe trajectory violates the declared decay envelope by {-rep.margin:.3e} "
            f"at t={rep.worst_time:.4g} (|xi|={R:.4g})"
        )
    gains = np.exp(0.5 * (traj.times - t0)) * _layer_gains(rho, traj.norms(), k_max)
    return np.max(gains, axis=1)


def _fold_rows(sys: DisturbedSystem, rows: list, rho: MonotoneFn, cfg: ConverseConfig,
               best: list, errors: dict) -> None:
    """Run ``rows`` as one lockstep batch and fold the runs of each point into its ``best``.

    The runs of a point are reduced together, with one envelope check and one
    layer-gain pass over all their samples.  A point whose runs fail goes run by
    run, so it keeps the error its own batch would raise: its first failed run's
    :class:`DynamicsError`, else its first failed check's :class:`ModelError`.
    The batch's trajectories are freed on return.
    """
    idx, t0s, xis, radii, ds, t_ends = zip(*rows)
    trajs = _simulate_members(sys.as_systemdef(), t0s, xis, ds, t_ends, cfg.sim_step)
    urgas = Certificate(kind="URGAS", beta=sys.urgas_beta)
    ends = [j for j in range(1, len(idx)) if idx[j] != idx[j - 1]] + [len(idx)]
    for start, stop in zip([0] + ends, ends):  # the rows of one point are consecutive
        i, t0, R, runs = idx[start], t0s[start], radii[start], trajs[start:stop]
        if not any(isinstance(tr, DynamicsError) or tr.blown_up for tr in runs):
            samples = Trajectory(times=np.concatenate([tr.times for tr in runs]),
                                 states=np.concatenate([tr.states for tr in runs]))
            try:
                best[i] = np.maximum(best[i], _layer_sups(samples, t0, R, urgas, rho, cfg.k_max))
                continue
            except ModelError:
                pass  # the runs one by one give the error of the first that fails
        for traj in runs:
            if isinstance(traj, DynamicsError) and not isinstance(errors.get(i), DynamicsError):
                errors[i] = traj
            elif i not in errors:
                try:
                    best[i] = np.maximum(best[i], _layer_sups(traj, t0, R, urgas, rho, cfg.k_max))
                except ModelError as exc:
                    errors[i] = exc


def wk_estimates(sys: DisturbedSystem, points: Sequence, theta1: MonotoneFn,
                 rho: MonotoneFn, cfg: ConverseConfig) -> list:
    """Lower estimates of all ``cfg.k_max`` layer suprema at each ``(t0, xi)`` of ``points``.

    One seeded disturbance batch per point is simulated over the longest
    layer horizon and every layer is read off the same trajectories.  Past
    its own horizon a layer term is 0 on a trajectory within the decay
    envelope, so the longer window only adds zeros; each ``W_k`` is a
    supremum over all ``s >= t0`` in any case.  The disturbance supremum is
    approximated by the batch and the time supremum by the simulation grid,
    so each estimate increases toward the true value as sampling is refined.

    The runs of all points, sorted by horizon, go through lockstep batches
    of at most ``_WK_ROWS`` rows, each reduced before the next starts; a
    point with ``xi = 0`` gets zeros without a run.  If points fail a model
    check, the error of the first of them in ``points`` is raised.
    """
    best = [np.zeros(cfg.k_max) for _ in points]
    runs = []  # (span, point index, t0, xi, |xi|) of every point off the origin
    for i, (t0, xi) in enumerate(points):
        xi = np.asarray(xi, dtype=float).reshape(sys.n)
        R = float(np.linalg.norm(xi))
        if R > 0.0:
            runs.append((horizon_for(cfg.k_max, theta1, R), i, t0, xi, R))
    rows = []
    draws = disturbance_draws(sys.m, cfg.disturbance_samples, cfg.pieces_per_horizon, cfg.seed)
    for span, i, t0, xi, R in sorted(runs, key=lambda run: run[0]):
        batch = disturbance_batch(sys.m, cfg.disturbance_samples, t0, span,
                                  cfg.pieces_per_horizon, cfg.seed, draws)
        rows += [(i, t0, xi, R, d, t0 + span) for d in batch]
    # whole points per batch whenever one point's runs fit in it
    size = _WK_ROWS - _WK_ROWS % cfg.disturbance_samples or _WK_ROWS
    errors = {}
    for start in range(0, len(rows), size):
        _fold_rows(sys, rows[start:start + size], rho, cfg, best, errors)
    if errors:
        raise errors[min(errors)]
    return best


class ConverseEvaluator:
    """Caching evaluator of the truncated layer series.

    The one assembly of the construction: the property checks, the
    candidate and its table export all query it.  All layer values of a
    probe state come from one :func:`wk_estimates` run and are cached by
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

    def wk_many(self, points: Sequence) -> list:
        """Layer arrays at the ``(t0, xi)`` points; the uncached ones run in one batch."""
        keys = [(float(t0), tuple(float(v) for v in np.atleast_1d(xi))) for t0, xi in points]
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if missing:
            found = wk_estimates(self.sys, missing, self.theta1, self.rho, self.cfg)
            self._cache.update(zip(missing, found))
        return [self._cache[key] for key in keys]

    def values(self, t0s, xis) -> np.ndarray:
        """The truncated series at the ``(S,)`` times and ``(S, n)`` states, from one
        :meth:`wk_many`: the weighted layers summed in layer order."""
        layers = np.reshape(self.wk_many(list(zip(np.ravel(t0s).tolist(), xis))),
                            (-1, self.cfg.k_max)).T
        return sum(w * v for w, v in zip(self.weights, layers))

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
        def series(t, x):
            v = self.values(t, np.reshape(x, (np.size(t), -1)))
            return float(v[0]) if np.ndim(t) == 0 else v

        return LyapunovCandidate(
            eval=series,
            alpha1=self.alpha1_table(rho_grid),
            alpha2=self.theta1,
            name=name,
        )


def build_mrk_table(sys: DisturbedSystem, theta1: MonotoneFn, cfg: ConverseConfig) -> Callable:
    """Empirical Lipschitz-weight table ``(R, k) -> M_{R,k}``.

    Probes the solution sensitivity at radius ``k`` over each layer horizon,
    all layers' probes in one batch, monotonizes by running maxima, and assembles
    ``M_{R,k} = e^{T_{R,k}/2} * Lbar(ceil(max(R,1)))``, nondecreasing in
    both arguments.
    """
    specs = [(float(k), max(horizon_for(k, theta1, float(k)), 0.1), _PROBE_SAMPLES,
              cfg.seed + 1000 + k) for k in range(1, cfg.k_max + 1)]
    lbar = []
    for rep in lipschitz_probes(sys.as_systemdef(), specs, step=_PROBE_STEP):
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
    decay_eval_points: int = 3
    constant_disturbances: tuple = (-1.0, 0.0, 1.0)
    lipschitz_pairs: int = 4
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
    the one-sided sampling of both sides.  The series is evaluated in two
    phases of one :meth:`ConverseEvaluator.values` call each: the sandwich
    states with both ends of every Lipschitz pair, then the decay samples,
    whose runs from every ``t0`` go through one :func:`simulate_batch`.
    """
    sys, theta1, cfg, mrk_table = ev.sys, ev.theta1, ev.cfg, ev.mrk_table
    slack = plan.slack
    rng = np.random.default_rng(plan.seed)
    pairs = []
    for _ in range(plan.lipschitz_pairs):
        t_a, t_b = rng.uniform(0.0, 2.0, size=2)
        xa = rng.uniform(-plan.lipschitz_radius, plan.lipschitz_radius, size=sys.n)
        xb = rng.uniform(-plan.lipschitz_radius, plan.lipschitz_radius, size=sys.n)
        den = abs(t_a - t_b) + float(np.linalg.norm(xa - xb))
        if den >= 1e-9:
            pairs.append((t_a, xa, t_b, xb, den))
    axes = np.zeros((len(plan.states), sys.n))  # the probe states on the first axis
    axes[:, 0] = plan.states
    probes = [(t0, s, xi) for t0 in plan.t0_values for s, xi in zip(plan.states, axes)]
    # phase A: the sandwich states, then both ends of every pair
    ends = [end for t_a, xa, t_b, xb, _ in pairs for end in ((t_a, xa), (t_b, xb))]
    values = ev.values([p[0] for p in probes] + [t for t, _ in ends],
                       [p[2] for p in probes] + [x for _, x in ends]).tolist()
    v_probes, v_ends = values[:len(probes)], values[len(probes):]

    sandwich_rows = []
    for (t0, s, _), v in zip(probes, v_probes):
        lo, hi = ev.alpha1_value(abs(s)), float(theta1.eval(abs(s)))
        sandwich_rows.append({
            "t0": float(t0), "state": float(s), "lower": lo, "value": v, "upper": hi,
            "ok": (v >= lo * (1.0 - slack) - 1e-12) and (v <= hi * (1.0 + slack) + 1e-12),
        })

    theoretical = 1.0 + sum(
        2.0 ** (-k) * float(mrk_table(plan.lipschitz_radius, k))
        / (1.0 + float(mrk_table(k, k)))
        for k in range(1, cfg.k_max + 1)
    )
    ratios = [abs(va - vb) / p[4] for p, va, vb in zip(pairs, v_ends[0::2], v_ends[1::2])]
    lip_rows = [{"ratio": float(r), "bound": float(theoretical),
                 "ok": r <= theoretical * (1.0 + slack)} for r in ratios]

    # the decay runs from every t0 in one batch, of the probe states with V(t0, xi) > 1e-12
    runs = [(t0, s, xi, v0, dc, t0 + plan.decay_horizon)
            for (t0, s, xi), v0 in zip(probes, v_probes) if v0 > 1e-12
            for dc in plan.constant_disturbances]
    trajs = simulate_batch(sys.as_systemdef(), [r[0] for r in runs], [r[2] for r in runs],
                           [constant_signal(np.full(sys.m, r[4]), r[5]) for r in runs],
                           [r[5] for r in runs], cfg.sim_step)
    queries = []  # (t0, state, d, t, x(t), V(t0, xi)) of every decay sample
    for (t0, s, _, v0, dc, t_end), traj in zip(runs, trajs):
        eval_ts = np.linspace(t0, t_end, plan.decay_eval_points + 1)[1:]
        idx = np.minimum(np.searchsorted(traj.times, eval_ts), traj.times.size - 1)
        queries += [(t0, s, dc, float(traj.times[i]), traj.states[i], v0) for i in idx]
    # phase B: every decay sample
    v_queries = ev.values([q[3] for q in queries], [q[4] for q in queries]).tolist()

    decay_rows = []
    for (t0, s, dc, tt, _, v0), vt in zip(queries, v_queries):
        bound = math.exp(-0.5 * (tt - t0)) * v0 * (1.0 + slack)
        decay_rows.append({
            "t0": float(t0), "state": float(s), "d": float(dc),
            "t": tt, "value": vt, "bound": bound, "ok": vt <= bound + 1e-12,
        })

    return ConverseReport(
        sandwich_ok=all(r["ok"] for r in sandwich_rows),
        lipschitz_ok=all(r["ok"] for r in lip_rows),
        decay_ok=all(r["ok"] for r in decay_rows),
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
    ts, xs = np.repeat(t_grid, len(x_grid)), np.tile(x_grid, len(t_grid))[:, None]
    probe = sorted({0, (ts.size - 1) // 2, ts.size - 1})  # first, middle and last node
    v_eval = _as_rowwise(candidate.eval, ts[probe], xs[probe])
    values = np.reshape(v_eval(ts, xs), (len(t_grid), len(x_grid))).tolist()
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
    """Rebuild a table candidate: bilinear on the stored grid, row-wise in ``(t, x)``.

    A query off the grid raises :class:`RangeError` naming the grid.
    """
    t_grid = np.asarray(d["t_grid"], dtype=float)
    x_grid = np.asarray(d["x_grid"], dtype=float)
    values = np.asarray(d["values"], dtype=float)

    def _eval(t, x, _t=t_grid, _x=x_grid, _v=values):
        t, x = np.asarray(t, dtype=float), np.atleast_1d(x)[..., 0]
        off = (t < _t[0]) | (t > _t[-1]) | (x < _x[0]) | (x > _x[-1])
        if np.any(off):
            i = np.argmax(off) if off.ndim else ()
            raise RangeError(f"table candidate queried at (t={t[i]:.6g}, x={x[i]:.6g}) off its "
                             f"grid t in [{_t[0]:.6g}, {_t[-1]:.6g}], x in [{_x[0]:.6g}, "
                             f"{_x[-1]:.6g}]; re-export with grids covering it")
        out = _bilinear(_t, _x, _v, t, x)
        return float(out) if out.ndim == 0 else out

    return LyapunovCandidate(
        eval=_eval,
        alpha1=monotone_from_spec(d["alpha1"]),
        alpha2=monotone_from_spec(d["alpha2"]),
        name=d.get("name", "table"),
    )
